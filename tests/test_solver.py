import numpy as np
import pytest

from gridfreq.solver import INF, SolverModel


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
