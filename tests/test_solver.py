import warnings

import numpy as np
import pytest

from gridfreq import solver
from gridfreq.solver import INF, HighsBackend, SolverModel


def test_matrix_follows_added_columns_and_rows():
    m = SolverModel()
    a, b = m.add_vars(2)
    m.add_rows([[a, b]], [[1.0, 2.0]], -INF, 4.0)
    first = m.matrix()
    assert first is m.matrix()
    assert first.shape == (1, 2)

    c, = m.add_vars(1)
    assert m.matrix().shape == (1, 3)
    m.add_rows([[b, c]], [[-1.0, 3.0]], 1.0, INF)
    assert np.array_equal(m.matrix().toarray(),
                          [[1.0, 2.0, 0.0], [0.0, -1.0, 3.0]])
    # the new row is checked: 3 * 0 - 1 * 1 misses its lower bound 1 by 2
    assert np.array_equal(m.residuals(np.array([0.0, 1.0, 0.0])),
                          [0.0, 2.0])


def test_row_with_unknown_column_is_rejected():
    m = SolverModel()
    a, b = m.add_vars(2)
    for bad in (2, -2):
        with pytest.raises(IndexError,
                           match=f"row references unknown variable {bad}"):
            m.add_rows([[a, bad]], [[1.0, 1.0]], -INF, 4.0)
    assert m.n_rows == 0


def test_without_drops_columns_and_the_rows_that_read_them():
    m = SolverModel()
    a, b, c, d = m.add_vars(4)
    m.lb[:] = [0.0, -1.0, -2.0, -3.0]
    m.ub[:] = [1.0, 2.0, 3.0, INF]
    m.c[:] = [5.0, 6.0, 7.0, 8.0]
    m.is_int = [True, False, False, True]
    m.add_rows([[a, c], [b, -1], [d, a]], [[1.0, 2.0], [3.0, 0.0],
                                          [4.0, 5.0]], [-1.0, -2.0, -3.0],
               [1.0, 2.0, 3.0])
    m.add_rows([[-1, -1], [c, b], [c, d]], [[1.0, 1.0], [6.0, 7.0],
                                            [8.0, 9.0]], [-4.0, -5.0, -6.0],
               INF)
    asm = m.assembly()
    before = [x.copy() for x in (m.lb, m.ub, m.c, asm.csr.toarray(),
                                 asm.row_lo, asm.row_hi)]

    r = m.without([b])
    # rows 1 and 4 read b; the empty row 3 stays; d's entry before a's
    # keeps its place
    assert (r.n_vars, r.n_rows) == (3, 4)
    assert np.array_equal(r.lb, [0.0, -2.0, -3.0])
    assert np.array_equal(r.ub, [1.0, 3.0, INF])
    assert np.array_equal(r.c, [5.0, 7.0, 8.0])
    assert r.is_int == [True, False, True]
    assert np.array_equal(r.matrix().toarray(),
                          [[1.0, 2.0, 0.0], [5.0, 0.0, 4.0],
                           [0.0, 0.0, 0.0], [0.0, 8.0, 9.0]])
    assert np.array_equal(r.row_entries[0].col, [0, 1, 2, 0, 1, 2])
    assert np.array_equal(r.assembly().row_lo, [-1.0, -3.0, -4.0, -6.0])
    assert np.array_equal(r.assembly().row_hi, [1.0, 3.0, INF, INF])

    # the source model and its assembly are untouched
    assert m.assembly() is asm
    assert (m.n_vars, m.n_rows) == (4, 6)
    assert all(np.array_equal(x, y) for x, y in zip(before, (
        m.lb, m.ub, m.c, asm.csr.toarray(), asm.row_lo, asm.row_hi)))
    assert m.is_int == [True, False, False, True]


def fixing_model():
    """x0, x1 in [0, 2] to be fixed; f in [0, 1] and g >= 0 left free.

    x0 + f >= 2 and x1 + f >= 2 need x0 >= 1 and x1 >= 1, and
    x0 + x1 + g <= 3.5 needs x0 + x1 <= 3.5; g >= f - 0.5, and the cost
    is f + 2 g.
    """
    m = SolverModel()
    x0, x1, f, g = m.add_vars(4)
    m.ub[:] = [2.0, 2.0, 1.0, INF]
    m.c[:] = [0.0, 0.0, 1.0, 2.0]
    m.add_rows([[x0, f], [x1, f]], 1.0, 2.0, INF)
    m.add_rows([[x0, x1, g]], 1.0, -INF, 3.5)
    m.add_rows([[g, f]], [[1.0, -1.0]], -0.5, INF)
    return m, [x0, x1]


# row 3 breaks x1 + f >= 2, which row 0's certificate (x0 + f >= 2) does
# not separate; row 5 breaks the third row, which neither earlier one
# separates; row 10 misses x0 + f >= 2 by less than HiGHS's tolerance
FIXINGS = np.array([[0.5, 1.5], [1.5, 1.5], [0.25, 1.5], [1.5, 0.5],
                    [1.0, 1.0], [2.0, 2.0], [0.0, 0.0], [1.5, 0.25],
                    [1.8, 1.8], [1.2, 1.9], [1.0 - 5e-8, 1.5]])


@pytest.mark.skipif(solver._highs is None,
                    reason="scipy without its bundled HiGHS binding")
def test_solve_fixed_skips_only_proven_infeasible_rows(monkeypatch):
    m, cols = fixing_model()
    backend = HighsBackend()
    cold = list(solver.solve_each(backend, m, cols, FIXINGS, 60.0))
    runs = []
    run = solver._run
    monkeypatch.setattr(solver, "_run",
                        lambda h, is_mip: runs.append(1) or run(h, is_mip))
    series = list(backend.solve_fixed(m, cols, FIXINGS, 60.0))
    assert [r.status for r in series] == [r.status for r in cold] == [
        "infeasible", "optimal", "infeasible", "infeasible", "optimal",
        "infeasible", "infeasible", "infeasible", "infeasible", "optimal",
        "optimal"]
    for warm, ref in zip(series, cold):
        if ref.status == "optimal":
            assert warm.objective == pytest.approx(ref.objective, abs=1e-9)
    assert len(runs) < len(FIXINGS)

    # a model HiGHS will not load: one infeasible per row, and no run
    runs.clear()
    m.add_rows([[cols[0], cols[1]]], [[INF, 1.0]], -INF, 10.0)
    series = list(backend.solve_fixed(m, cols, FIXINGS, 60.0))
    assert [r.status for r in series] == ["infeasible"] * len(FIXINGS)
    assert [r.status for r in solver.solve_each(backend, m, cols, FIXINGS,
                                                60.0)] == [
        "infeasible"] * len(FIXINGS)
    assert not runs


@pytest.mark.parametrize("direct", [True, False])
def test_solve_fixed_refuses_an_integer_model(monkeypatch, direct):
    """A series is of LPs; a model with an integer column is refused on
    either path, before any run."""
    if direct and solver._highs is None:
        pytest.skip("scipy without its bundled HiGHS binding")
    if not direct:
        monkeypatch.setattr(solver, "_highs", None)
    m, cols = fixing_model()
    m.is_int = [False, False, True, False]
    with pytest.raises(ValueError, match="without integer columns"):
        HighsBackend().solve_fixed(m, cols, FIXINGS, 60.0)


def test_separated_counts_zero_weights_on_infinite_bounds():
    m, cols = fixing_model()
    asm = m.assembly()
    # x0 + f >= 2 alone: g's infinite bound has weight 0 and adds nothing
    y = np.array([1.0, 0.0, 0.0, 0.0])
    assert solver._separated(m, asm, cols, FIXINGS, y).tolist() == [
        True, False, True, False, False, False, True, False, False, False,
        False]
    # x0 + x1 + g <= 3.5 reads g, so the free columns' range is infinite
    # on one side only; the other still separates a fixing above 3.5
    y = np.array([0.0, 0.0, -1.0, 0.0])
    assert solver._separated(m, asm, cols, FIXINGS, y).tolist() == [
        False, False, False, False, False, True, False, False, True, False,
        False]
    # adding g >= f - 0.5 gives x0 + g >= 1.5: g is unbounded on the side
    # that would separate, so nothing is
    y = np.array([1.0, 0.0, 0.0, 1.0])
    assert not solver._separated(m, asm, cols, FIXINGS, y).any()


def small_mip():
    """min -x - y over integers x, y in [0, 3] with x + 2 y <= 4: -3."""
    m = SolverModel()
    x, y = m.add_vars(2)
    m.ub[:] = 3.0
    m.c[:] = -1.0
    m.is_int = [True, True]
    m.add_rows([[x, y]], [[1.0, 2.0]], -INF, 4.0)
    return m


@pytest.mark.skipif(solver._highs is None,
                    reason="scipy without its bundled HiGHS binding")
def test_both_paths_hand_highs_the_options(monkeypatch):
    m = small_mip()
    assert not solver.HIGHS_OPTIONS["mip_heuristic_run_root_reduced_cost"]
    h = solver._load(m, m.assembly())
    for name, value in solver.HIGHS_OPTIONS.items():
        assert h.getOptionValue(name) == (solver._highs.HighsStatus.kOk,
                                          value)

    passed = []
    milp = solver.milp
    monkeypatch.setattr(solver, "milp", lambda *a, options, **kw: (
        passed.append(options) or milp(*a, options=options, **kw)))
    monkeypatch.setattr(solver, "_highs", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = HighsBackend().solve(m, mip_gap=1e-9, time_limit=60.0)
    assert res.status == "optimal" and res.objective == pytest.approx(-3.0)
    assert passed and passed[0].items() >= solver.HIGHS_OPTIONS.items()


@pytest.mark.skipif(solver._highs is None,
                    reason="scipy without its bundled HiGHS binding")
def test_an_option_highs_rejects_is_an_error(monkeypatch):
    m = small_mip()
    monkeypatch.setitem(solver.HIGHS_OPTIONS,
                        "mip_heuristic_run_root_reduced_cots", False)
    with pytest.raises(ValueError, match="reduced_cots"):
        HighsBackend().solve(m)
