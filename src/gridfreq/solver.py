"""Thin mixed-integer solver abstraction.

Models are accumulated as column bound and cost arrays plus blocks of
rows added from arrays, and solved with the HiGHS solver shipped with
scipy: directly through its bundled binding where that private module
is present, and through ``scipy.optimize.milp`` otherwise. Both paths
run HiGHS with its defaults except for ``HIGHS_OPTIONS``: quiet, and
without the root reduced-cost heuristic.

``HighsBackend.solve_fixed`` solves an LP under a series of fixings of
the same columns on one HiGHS instance, each from the previous basis.
An infeasible LP's dual ray is a Farkas certificate over the fixed
columns: each later fixing of the series that it separates is reported
infeasible without a run. Certificates never leave their series, so what
a series runs and skips depends on its fixings alone.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError:
    _highs = None

INF = float("inf")
# HiGHS's default primal feasibility tolerance: a solution may miss a row
# or column bound by this much
FEAS_TOL = 1e-7
# What every HiGHS run sets beyond the per-solve gap and time limit, on
# both paths. The root reduced-cost heuristic solves sub-MIPs of its own
# at the root: on the shipped five-day study it took 30% of the proof's
# simplex iterations, and every day still closes by the proof without it.
HIGHS_OPTIONS = {"log_to_console": False,
                 "mip_heuristic_run_root_reduced_cost": False}


@dataclass
class SolveResult:
    # optimal; timeout, with or without a point; infeasible, which also
    # covers unbounded and any other HiGHS failure
    status: str
    x: np.ndarray | None
    objective: float | None
    mip_gap: float | None
    # HiGHS's counts. The two MIP figures come only with a MIP's point
    # and are None otherwise, on both paths; milp gives no simplex
    # iterations.
    mip_dual_bound: float | None = None
    mip_node_count: int | None = None
    simplex_iterations: int | None = None

    @property
    def has_solution(self) -> bool:
        return self.x is not None


@dataclass(frozen=True)
class Assembly:
    """The parts of the solver input that depend only on rows and is_int."""

    csc: sp.csc_matrix
    row_lo: np.ndarray
    row_hi: np.ndarray
    integrality: np.ndarray


@dataclass(frozen=True)
class RowBlock:
    """Rows added together: each entry's row, column and coefficient, in
    row order and within a row in the order given; each row's bounds."""

    row: np.ndarray
    col: np.ndarray
    coef: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __len__(self) -> int:
        return len(self.coef)


@dataclass
class SolverModel:
    """Linear MIP: column arrays plus range rows in blocks."""

    lb: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ub: np.ndarray = field(default_factory=lambda: np.zeros(0))
    c: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # copied into the assembly below when that is built, so set it before
    # the first solve or matrix() call
    is_int: list[bool] = field(default_factory=list)
    row_entries: list[RowBlock] = field(default_factory=list)
    # matrix, row bound and integrality arrays, built on demand and dropped
    # when a column or row is added, so repeated solves and residual checks
    # share one assembly
    _assembly: Assembly | None = field(default=None, init=False,
                                        repr=False, compare=False)

    @property
    def n_vars(self) -> int:
        return len(self.lb)

    @property
    def n_rows(self) -> int:
        return sum(len(b.lo) for b in self.row_entries)

    def add_vars(self, n: int, lb: float = 0.0, ub: float = INF,
                 binary: bool = False) -> np.ndarray:
        """Append n columns with zero cost; returns their indices."""
        start = self.n_vars
        self.lb = np.concatenate([self.lb, np.full(n, float(lb))])
        self.ub = np.concatenate([self.ub, np.full(n, float(ub))])
        self.c = np.concatenate([self.c, np.zeros(n)])
        self.is_int.extend([binary] * n)
        self._assembly = None
        return np.arange(start, start + n)

    def add_rows(self, cols, vals, lo, hi) -> None:
        """Append rows ``lo <= vals . x[cols] <= hi``, one per index of the
        leading axes of ``cols`` and ``vals`` in C order. The two broadcast
        together, their last axis holds a row's entries, and column -1 is
        no entry; ``lo`` and ``hi`` broadcast to the leading axes."""
        cols, vals = np.broadcast_arrays(cols, np.asarray(vals, dtype=float))
        bad = cols[(cols < -1) | (cols >= self.n_vars)]
        if len(bad):
            raise IndexError(f"row references unknown variable {bad[0]}")
        shape = cols.shape[:-1]
        flat = (math.prod(shape), cols.shape[-1])
        used = cols.reshape(flat) >= 0
        self.row_entries.append(RowBlock(
            self.n_rows + np.nonzero(used)[0], cols.reshape(flat)[used],
            vals.reshape(flat)[used],
            np.broadcast_to(np.asarray(lo, dtype=float), shape).ravel(),
            np.broadcast_to(np.asarray(hi, dtype=float), shape).ravel()))
        self._assembly = None

    def _rows(self) -> RowBlock:
        """Every row block as one."""
        blocks = [RowBlock(*[np.zeros(0, int)] * 2, *[np.zeros(0)] * 3)]
        return RowBlock(*(np.concatenate(x) for x in zip(*(
            (b.row, b.col, b.coef, b.lo, b.hi)
            for b in blocks + self.row_entries))))

    def assembly(self) -> Assembly:
        if self._assembly is None:
            b = self._rows()
            csc = sp.csc_matrix((b.coef, (b.row, b.col)),
                                shape=(self.n_rows, self.n_vars))
            self._assembly = Assembly(csc, b.lo, b.hi,
                                      np.array(self.is_int, dtype=np.int32))
        return self._assembly

    def matrix(self) -> sp.csc_matrix:
        return self.assembly().csc

    def fixed(self, cols, vals) -> SolverModel:
        """A copy with ``cols`` fixed at ``vals``. It has its own column
        bounds and shares the rest, the assembly built first if need be:
        this model is not written, and its later solves reuse the one
        matrix."""
        self.assembly()
        m = copy.copy(self)
        m.lb, m.ub = self.lb.copy(), self.ub.copy()
        m.lb[cols] = m.ub[cols] = vals
        return m

    def without(self, cols) -> SolverModel:
        """A new model with ``cols`` removed, and with them every row that
        reads one. What is left keeps its order, data and bounds, so a
        column before every removed one keeps its index; this model is not
        written."""
        keep = np.ones(self.n_vars, dtype=bool)
        keep[cols] = False
        b = self._rows()
        left = np.ones(len(b.lo), dtype=bool)
        left[b.row[~keep[b.col]]] = False
        e = left[b.row]
        m = SolverModel(self.lb[keep], self.ub[keep], self.c[keep],
                        [f for f, k in zip(self.is_int, keep) if k])
        m.row_entries.append(RowBlock(
            (np.cumsum(left) - 1)[b.row[e]], (np.cumsum(keep) - 1)[b.col[e]],
            b.coef[e], b.lo[left], b.hi[left]))
        return m

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """Per-row constraint violation of a candidate point (>= 0)."""
        asm = self.assembly()
        ax = asm.csc @ x
        return np.maximum(np.maximum(asm.row_lo - ax, ax - asm.row_hi), 0.0)


class HighsBackend:
    """MILP backend over scipy's bundled HiGHS solver."""

    name = "highs"

    def solve(self, model: SolverModel, mip_gap: float = 1e-4,
              time_limit: float = 600.0,
              start: np.ndarray | None = None) -> SolveResult:
        """Solve ``model`` with HiGHS's defaults and ``HIGHS_OPTIONS``.

        ``start`` is a full column vector HiGHS tries as its first
        incumbent. ``milp`` takes none and ignores it, the one difference
        in what the two paths solve.
        """
        if _highs is None:
            return _solve_milp(model, mip_gap, time_limit)
        return _solve_direct(model, mip_gap, time_limit, start)

    def solve_fixed(self, model: SolverModel, cols, vals,
                    time_limit: float):
        """One ``SolveResult`` per row of ``vals``, in order: ``model``
        with ``cols`` fixed at that row, each solve within ``time_limit``.

        ``model`` must have no integer columns; one that has raises
        ValueError. On the direct path it is passed to HiGHS once; each
        row changes the fixed columns' bounds and re-solves from the basis
        the previous run left. A row that an earlier infeasible run's dual
        ray proves infeasible is yielded as ``infeasible`` with 0 simplex
        iterations and no run; every other row gets the status a cold
        solve gives it. Through ``milp`` each row is a ``solve`` of its
        own ``fixed`` copy (``solve_each``).
        """
        if model.assembly().integrality.any():
            raise ValueError("solve_fixed takes a model without integer "
                             "columns")
        if _highs is None:
            return solve_each(self, model, cols, vals, time_limit)
        return _solve_series(model, cols, vals, time_limit)


def solve_each(backend, model: SolverModel, cols, vals, time_limit: float):
    """``backend.solve`` of ``model.fixed(cols, v)`` for each row ``v`` of
    ``vals``, in order; columns left integer are solved to a 1e-9 gap."""
    for v in vals:
        yield backend.solve(model.fixed(cols, v), mip_gap=1e-9,
                            time_limit=time_limit)


def _load(model: SolverModel, asm: Assembly):
    """A ``_Highs`` with ``HIGHS_OPTIONS`` holding ``model``; None when
    HiGHS rejects the model. An option HiGHS rejects raises ValueError."""
    a = asm.csc
    h = _highs._Highs()
    for name, value in HIGHS_OPTIONS.items():
        if h.setOptionValue(name, value) != _highs.HighsStatus.kOk:
            raise ValueError(f"HiGHS rejects option {name}={value!r}")
    loaded = h.passModel(
        model.n_vars, model.n_rows, a.nnz, int(_highs.MatrixFormat.kColwise),
        int(_highs.ObjSense.kMinimize), 0.0, model.c, model.lb, model.ub,
        asm.row_lo, asm.row_hi, a.indptr, a.indices, a.data, asm.integrality)
    return None if loaded == _highs.HighsStatus.kError else h


def _solve_direct(model: SolverModel, mip_gap: float, time_limit: float,
                  start: np.ndarray | None) -> SolveResult:
    """One HiGHS run on the arrays and options ``milp`` would pass.

    HiGHS checks ``start`` and drops it when it breaks a bound, a row or
    integrality.
    """
    asm = model.assembly()
    h = _load(model, asm)
    if h is None:
        return SolveResult("infeasible", None, None, None)
    h.setOptionValue("mip_rel_gap", float(mip_gap))
    h.setOptionValue("time_limit", float(time_limit))
    if start is not None:
        point = _highs.HighsSolution()
        point.col_value = start
        point.value_valid = True
        h.setSolution(point)
    return _run(h, bool(asm.integrality.any()))


def _solve_series(model: SolverModel, cols, vals, time_limit: float):
    """``solve_fixed``'s direct path.

    A run that comes back infeasible leaves a Farkas certificate
    (``_separated``); every later row it proves infeasible is yielded as
    ``infeasible`` with no run.
    """
    asm = model.assembly()
    h = _load(model, asm)
    if h is None:
        for _ in vals:
            yield SolveResult("infeasible", None, None, None)
        return
    vals = np.asarray(vals, dtype=float)
    # HiGHS takes a column set in increasing order
    order = np.argsort(cols)
    idx = np.asarray(cols, dtype=np.int32)[order]
    proven = np.zeros(len(vals), dtype=bool)
    for i, v in enumerate(vals):
        if proven[i]:
            yield SolveResult("infeasible", None, None, None,
                              simplex_iterations=0)
            continue
        h.changeColsBounds(len(idx), idx, v[order], v[order])
        # HiGHS's time limit counts every run of one instance
        h.setOptionValue("time_limit", h.getRunTime() + float(time_limit))
        res = _run(h, False)
        if res.status == "infeasible":
            status, has_ray, ray = h.getDualRay()
            if status != _highs.HighsStatus.kError and has_ray:
                proven[i + 1:] |= _separated(model, asm, cols, vals[i + 1:],
                                             ray)
        yield res


def _separated(model: SolverModel, asm: Assembly, cols, vals,
               y: np.ndarray) -> np.ndarray:
    """Which rows of ``vals``, fixings of ``cols``, the row weights ``y``
    prove infeasible.

    Every feasible x has ``y.A x`` within the rows' bounds aggregated by
    the sign of each weight, ``[lo, hi]``, and also ``y.A x = d.x`` with
    ``d = A'y``, which over the columns not fixed ranges within their
    bounds, ``[fmin, fmax]``. A fixing whose ``d`` part ``a`` leaves the
    two ranges apart has no feasible point. A point HiGHS accepts within
    ``FEAS_TOL`` moves each side by at most ``FEAS_TOL`` times
    ``|y|_1`` or ``|d|_1``, so only a gap of ten times their sum counts.
    Any ``y`` gives a sound test; an infeasible LP's dual ray is one that
    separates its own fixing.
    """
    d = asm.csc.T @ y
    lo, hi = _range(y, asm.row_lo, asm.row_hi)
    free = np.ones(model.n_vars, dtype=bool)
    free[cols] = False
    fmin, fmax = _range(d[free], model.lb[free], model.ub[free])
    margin = 10 * FEAS_TOL * (np.abs(y).sum() + np.abs(d).sum())
    a = vals @ d[cols]
    return (a + fmax < lo - margin) | (a + fmin > hi + margin)


def _range(w: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The least and greatest ``w.x`` over ``lo <= x <= hi``; a zero weight
    adds nothing even on an infinite bound."""
    pos, neg = w > 0, w < 0
    return (w[pos] @ lo[pos] + w[neg] @ hi[neg],
            w[pos] @ hi[pos] + w[neg] @ lo[neg])


def _run(h, is_mip: bool) -> SolveResult:
    """Run the loaded ``h`` and read its result."""
    ran = h.run() != _highs.HighsStatus.kError
    status = h.getModelStatus()
    info = h.getInfo()
    counts = {"simplex_iterations": info.simplex_iteration_count}
    # as in milp, a MIP's bound and node count come only with a point
    point = dict(counts, mip_dual_bound=info.mip_dual_bound,
                 mip_node_count=info.mip_node_count) if is_mip else counts
    gap = info.mip_gap if is_mip else None
    statuses = _highs.HighsModelStatus
    if ran and status == statuses.kOptimal:
        return SolveResult("optimal", np.array(h.getSolution().col_value),
                           info.objective_function_value, gap, **point)
    if status in (statuses.kTimeLimit, statuses.kIterationLimit):
        # as in milp: an LP that stops early, or a MIP without an
        # incumbent, leaves no point
        if (ran and is_mip
                and info.objective_function_value != _highs.kHighsInf):
            return SolveResult("timeout",
                               np.array(h.getSolution().col_value),
                               info.objective_function_value, gap, **point)
        return SolveResult("timeout", None, None, None, **counts)
    return SolveResult("infeasible", None, None, None, **counts)


def _solve_milp(model: SolverModel, mip_gap: float,
                time_limit: float) -> SolveResult:
    """The same solve through ``scipy.optimize.milp``."""
    asm = model.assembly()
    constraints = []
    if model.n_rows:
        constraints.append(LinearConstraint(asm.csc, asm.row_lo,
                                            asm.row_hi))
    with warnings.catch_warnings():
        # milp warns that it hands HIGHS_OPTIONS to HiGHS verbatim
        warnings.filterwarnings("ignore", "Unrecognized options detected",
                                RuntimeWarning)
        res = milp(model.c, constraints=constraints,
                   integrality=asm.integrality,
                   bounds=Bounds(model.lb, model.ub),
                   options={"mip_rel_gap": mip_gap, "time_limit": time_limit,
                            **HIGHS_OPTIONS})
    gap = res.get("mip_gap")
    # milp fills these for a MIP with a point, and sets them to None
    # otherwise
    counts = {k: res.get(k) for k in ("mip_dual_bound", "mip_node_count")}
    if res.status == 0:
        return SolveResult("optimal", res.x, float(res.fun), gap, **counts)
    if res.status == 1 and res.x is not None:
        return SolveResult("timeout", res.x, float(res.fun), gap, **counts)
    if res.status == 1:
        return SolveResult("timeout", None, None, None, **counts)
    return SolveResult("infeasible", None, None, None, **counts)


def get_backend() -> HighsBackend:
    """The solver backend: HiGHS, direct or through ``milp``."""
    return HighsBackend()
