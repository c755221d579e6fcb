"""Thin mixed-integer solver abstraction.

Models are accumulated as column bound and cost arrays plus sparse row
triplets, and solved with the HiGHS solver shipped with scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

INF = float("inf")


@dataclass
class SolveResult:
    # optimal; timeout, with or without a point; infeasible, which also
    # covers unbounded and any other HiGHS failure
    status: str
    x: np.ndarray | None
    objective: float | None
    mip_gap: float | None

    @property
    def has_solution(self) -> bool:
        return self.x is not None


@dataclass
class SolverModel:
    """Linear MIP: column arrays plus range rows in triplet form."""

    lb: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ub: np.ndarray = field(default_factory=lambda: np.zeros(0))
    c: np.ndarray = field(default_factory=lambda: np.zeros(0))
    is_int: list[bool] = field(default_factory=list)
    row_entries: list[list[tuple[int, float]]] = field(default_factory=list)
    row_lo: list[float] = field(default_factory=list)
    row_hi: list[float] = field(default_factory=list)
    # CSR of row_entries, built on demand and dropped when a column or row
    # is added, so repeated solves and residual checks share one assembly
    _csr: sp.csr_matrix | None = field(default=None, init=False, repr=False,
                                       compare=False)

    @property
    def n_vars(self) -> int:
        return len(self.lb)

    @property
    def n_rows(self) -> int:
        return len(self.row_entries)

    def add_vars(self, n: int, lb: float = 0.0, ub: float = INF,
                 binary: bool = False) -> np.ndarray:
        """Append n columns with zero cost; returns their indices."""
        start = self.n_vars
        self.lb = np.concatenate([self.lb, np.full(n, float(lb))])
        self.ub = np.concatenate([self.ub, np.full(n, float(ub))])
        self.c = np.concatenate([self.c, np.zeros(n)])
        self.is_int.extend([binary] * n)
        self._csr = None
        return np.arange(start, start + n)

    def add_row(self, entries: list[tuple[int, float]], lo: float,
                hi: float) -> int:
        for idx, _ in entries:
            if not 0 <= idx < self.n_vars:
                raise IndexError(f"row references unknown variable {idx}")
        self.row_entries.append(entries)
        self.row_lo.append(lo)
        self.row_hi.append(hi)
        self._csr = None
        return len(self.row_entries) - 1

    def add_le(self, entries, rhs) -> int:
        return self.add_row(entries, -INF, rhs)

    def add_ge(self, entries, rhs) -> int:
        return self.add_row(entries, rhs, INF)

    def add_eq(self, entries, rhs) -> int:
        return self.add_row(entries, rhs, rhs)

    def matrix(self) -> sp.csr_matrix:
        if self._csr is None:
            rows, cols, vals = [], [], []
            for r, entries in enumerate(self.row_entries):
                for idx, coef in entries:
                    rows.append(r)
                    cols.append(idx)
                    vals.append(coef)
            self._csr = sp.csr_matrix((vals, (rows, cols)),
                                      shape=(self.n_rows, self.n_vars))
        return self._csr

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """Per-row constraint violation of a candidate point (>= 0)."""
        ax = self.matrix() @ x
        lo = np.array(self.row_lo)
        hi = np.array(self.row_hi)
        return np.maximum(np.maximum(lo - ax, ax - hi), 0.0)


class HighsBackend:
    """MILP backend over scipy's bundled HiGHS solver."""

    name = "highs"

    def solve(self, model: SolverModel, mip_gap: float = 1e-4,
              time_limit: float = 600.0) -> SolveResult:
        integrality = np.array(model.is_int, dtype=int)
        constraints = []
        if model.n_rows:
            constraints.append(LinearConstraint(
                model.matrix(), np.array(model.row_lo),
                np.array(model.row_hi)))
        res = milp(model.c, constraints=constraints, integrality=integrality,
                   bounds=Bounds(model.lb, model.ub),
                   options={"mip_rel_gap": mip_gap,
                            "time_limit": time_limit,
                            "disp": False})
        gap = getattr(res, "mip_gap", None)
        if res.status == 0:
            return SolveResult("optimal", res.x, float(res.fun), gap)
        if res.status == 2:
            return SolveResult("infeasible", None, None, None)
        if res.status == 1 and res.x is not None:
            return SolveResult("timeout", res.x, float(res.fun), gap)
        if res.status == 1:
            return SolveResult("timeout", None, None, None)
        return SolveResult("infeasible", None, None, None)


def get_backend() -> HighsBackend:
    """The solver backend: HiGHS through ``scipy.optimize.milp``."""
    return HighsBackend()
