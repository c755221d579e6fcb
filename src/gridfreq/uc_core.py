"""Two-stage stochastic unit-commitment MILP.

Builds the day-ahead commitment / real-time recourse model over a DC
network with joint wind and outage scenarios, optionally extended with
frequency-security rows (RoCoF, nadir surrogate, quasi-steady-state).
The nadir surrogate comes either as per-contingency variable bounds or as
max-affine epigraph rows.

Aggregate frequency quantities are linear in the commitment binaries, so
the model substitutes them directly instead of carrying the intermediate
per-unit gain variables; ``study._after_outage`` computes a solution's
post-outage aggregates from the same weights.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .freq_dynamics import frequency_weights
from .nadir_linearization import NadirBounds, PwlFit
from .scenarios import ContingencyModel, ScenarioTree, build_tree, ingest_wind
from .system import (ConverterFleet, FrequencyLimits,
                     SynchronousUnit, load_system, system_from_dict)

# solver loads scipy's MILP stack, so the functions that build or solve a
# model import it themselves and the data model loads with numpy alone
if TYPE_CHECKING:
    from .solver import SolveResult, SolverModel

FREQ_MODES = ("off", "bounds", "pwl")


class UcModelError(ValueError):
    pass


class InstanceTooLargeError(UcModelError):
    pass


@dataclass
class Line:
    node_from: str
    node_to: str
    susceptance: float    # MW per rad in the DC approximation
    capacity: float       # MW


@dataclass
class WindFarm:
    id: str
    bus: str
    capacity: float


@dataclass
class Network:
    nodes: list[str]
    lines: list[Line]
    demand: dict[str, list[float]]   # node -> MW per hour
    value_of_lost_load: float
    farms: list[WindFarm]

    def validate(self, horizon: int) -> None:
        nodeset = set(self.nodes)
        if len(nodeset) != len(self.nodes):
            raise UcModelError("duplicate node ids")
        for ln in self.lines:
            if ln.node_from not in nodeset or ln.node_to not in nodeset:
                raise UcModelError(
                    f"line {ln.node_from}-{ln.node_to} references unknown node")
            if ln.capacity <= 0:
                raise UcModelError(
                    f"line {ln.node_from}-{ln.node_to} capacity must be > 0")
        for node in self.nodes:
            if node not in self.demand:
                raise UcModelError(f"no demand series for node {node!r}")
        for node, series in self.demand.items():
            if node not in nodeset:
                raise UcModelError(f"demand at unknown node {node!r}")
            if len(series) < horizon:
                raise UcModelError(
                    f"demand series at {node} shorter than horizon {horizon}")
            if any(d < 0 for d in series):
                raise UcModelError(f"negative demand at node {node}")
        for farm in self.farms:
            if farm.bus not in nodeset:
                raise UcModelError(f"farm {farm.id} at unknown bus {farm.bus}")

    def components(self) -> list[list[str]]:
        """Connected components, each listing nodes in input order."""
        parent = {n: n for n in self.nodes}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for ln in self.lines:
            ra, rb = find(ln.node_from), find(ln.node_to)
            if ra != rb:
                parent[rb] = ra
        groups: dict[str, list[str]] = {}
        for n in self.nodes:
            groups.setdefault(find(n), []).append(n)
        return list(groups.values())


@dataclass
class InitialState:
    """Carried-over state from the previous scheduling day."""

    commitment: dict[str, int] = field(default_factory=dict)
    power: dict[str, float] = field(default_factory=dict)
    min_up_left: dict[str, int] = field(default_factory=dict)
    min_down_left: dict[str, int] = field(default_factory=dict)


@dataclass
class UcInstance:
    network: Network
    units: list[SynchronousUnit]
    fleet: ConverterFleet
    tree: ScenarioTree
    limits: FrequencyLimits
    horizon: int
    t_turbine: float = 7.0
    freq_mode: str = "off"
    # per outage unit: NadirBounds in bounds mode, PwlFit in pwl mode
    surrogates: dict[str, NadirBounds | PwlFit] | None = None
    initial: InitialState = field(default_factory=InitialState)

    def validate(self) -> None:
        if self.freq_mode not in FREQ_MODES:
            raise UcModelError(f"freq_mode must be one of {FREQ_MODES}")
        self.network.validate(self.horizon)
        if self.tree.horizon != self.horizon:
            raise UcModelError("scenario tree horizon != instance horizon")
        if self.tree.unit_ids != [u.id for u in self.units]:
            raise UcModelError("scenario tree built for different units")
        buses = set(self.network.nodes)
        for u in self.units:
            if u.bus not in buses:
                raise UcModelError(f"unit {u.id} at unknown bus {u.bus}")
        farm_ids = {f.id for f in self.network.farms}
        for s in self.tree.scenarios:
            if set(s.realization) != farm_ids:
                raise UcModelError(
                    f"scenario {s.id} wind farms do not match the network")
            for farm, series in s.realization.items():
                if len(series) < self.horizon:
                    raise UcModelError(
                        f"wind series of {farm} in scenario {s.id} shorter "
                        f"than horizon {self.horizon}")
        if self.freq_mode in ("bounds", "pwl"):
            needed = set(self.tree.outage_size)
            have = set(self.surrogates or {})
            if not needed <= have:
                raise UcModelError(
                    f"freq_mode={self.freq_mode} missing nadir surrogates "
                    f"for contingencies {sorted(needed - have)}")


@dataclass
class VarMap:
    u: np.ndarray          # (I, T)
    y: np.ndarray
    z: np.ndarray
    p: np.ndarray          # (I, T)
    w: np.ndarray          # (J, T)
    delta_da: np.ndarray   # (N, T)
    delta_rt: np.ndarray   # (N, S, T)
    r_up: np.ndarray       # (I, S, T)
    r_dn: np.ndarray       # (I, S, T)
    spill: np.ndarray      # (J, S, T)
    shed: np.ndarray       # (N, S, T)


@dataclass
class BuiltModel:
    model: SolverModel
    vars: VarMap
    instance: UcInstance


@dataclass
class UcSolution:
    status: str
    objective: float | None
    mip_gap: float | None
    u: np.ndarray | None = None
    y: np.ndarray | None = None
    z: np.ndarray | None = None
    p: np.ndarray | None = None
    w: np.ndarray | None = None
    delta_da: np.ndarray | None = None
    delta_rt: np.ndarray | None = None
    r_up: np.ndarray | None = None
    r_dn: np.ndarray | None = None
    spill: np.ndarray | None = None
    shed: np.ndarray | None = None
    cost_breakdown: dict | None = None
    max_residual: float | None = None
    # HiGHS's counts for the full run, or the proof's bound and 0 nodes
    # and iterations for a day proven without one; and the simplex
    # iterations of the reduced MILP plus the completion LP (the
    # iterations are None through milp)
    mip_dual_bound: float | None = None
    mip_node_count: int | None = None
    simplex_iterations: int | None = None
    start_iterations: int | None = None

    @property
    def feasible(self) -> bool:
        return self.status in ("optimal", "timeout") and self.u is not None


def build_model(instance: UcInstance) -> BuiltModel:
    """Assemble the full two-stage MILP for one scheduling day."""
    from .solver import SolverModel
    instance.validate()
    net, units, tree = instance.network, instance.units, instance.tree
    T = instance.horizon
    I, J, N, L = len(units), len(net.farms), len(net.nodes), len(net.lines)
    S = len(tree.scenarios)
    node_idx = {n: k for k, n in enumerate(net.nodes)}
    alpha = tree.availability    # (S, I, T)
    pi = np.array([s.probability for s in tree.scenarios])
    demand = np.array([net.demand[n][:T] for n in net.nodes])   # (N, T)
    wind = np.zeros((J, S, T))
    for s, scen in enumerate(tree.scenarios):
        for j, farm in enumerate(net.farms):
            wind[j, s, :] = scen.realization[farm.id][:T]

    m = SolverModel()
    u = m.add_vars(I * T, 0, 1, binary=True).reshape(I, T)
    # startup/shutdown indicators relax exactly: with positive costs and
    # the switching rows they take 0/1 values whenever u is integral
    y = m.add_vars(I * T, 0, 1).reshape(I, T)
    z = m.add_vars(I * T, 0, 1).reshape(I, T)
    p = m.add_vars(I * T, 0, np.inf).reshape(I, T)
    w = m.add_vars(J * T, 0, np.inf).reshape(J, T)
    delta_da = m.add_vars(N * T, -np.inf, np.inf).reshape(N, T)
    delta_rt = m.add_vars(N * S * T, -np.inf, np.inf).reshape(N, S, T)
    r_up = m.add_vars(I * S * T, 0, np.inf).reshape(I, S, T)
    r_dn = m.add_vars(I * S * T, 0, np.inf).reshape(I, S, T)
    spill = m.add_vars(J * S * T, 0, np.inf).reshape(J, S, T)
    shed = m.add_vars(N * S * T, 0, np.inf).reshape(N, S, T)
    vm = VarMap(u, y, z, p, w, delta_da, delta_rt, r_up, r_dn, spill, shed)

    def per_unit(attr):
        return np.array([getattr(unit, attr) for unit in units])

    # simple variable bounds standing in for pure box constraints
    m.ub[w] = np.array([farm.capacity for farm in net.farms])[:, None]
    alpha_ist = alpha.transpose(1, 0, 2)
    m.ub[r_up] = per_unit("res_up_cap")[:, None, None] * alpha_ist
    m.ub[r_dn] = per_unit("res_down_cap")[:, None, None] * alpha_ist
    m.ub[spill] = wind
    m.ub[shed] = demand[:, None, :]

    # reference angle per connected component, both stages
    refs = [node_idx[comp[0]] for comp in net.components()]
    m.lb[delta_da[refs]] = m.ub[delta_da[refs]] = 0.0
    m.lb[delta_rt[refs]] = m.ub[delta_rt[refs]] = 0.0

    # residual commitment obligations carried over from the previous day
    init = instance.initial
    up_left = np.array([init.min_up_left.get(unit.id, 0) for unit in units])
    dn_left = np.array([init.min_down_left.get(unit.id, 0) for unit in units])
    m.lb[u[np.arange(T) < up_left[:, None]]] = 1.0
    m.ub[u[np.arange(T) < dn_left[:, None]]] = 0.0

    # where units and farms sit, and each line's (from, to) end
    at = np.arange(N)[:, None]
    unit_at = np.array([node_idx[x.bus] for x in units]) == at     # (N, I)
    farm_at = np.array([node_idx[f.bus] for f in net.farms], dtype=int) == at
    ends = np.array([[node_idx[ln.node_from], node_idx[ln.node_to]]
                     for ln in net.lines], dtype=int).reshape(L, 2)
    end_at = ends == at[:, :, None]                       # (N, L, 2)
    da, rt = delta_da[ends], delta_rt[ends]               # (L, 2, [S,] T)
    cap = np.array([ln.capacity for ln in net.lines])[:, None]
    # a line's flow coefficients on the angles at its (from, to) end
    su = np.array([(ln.susceptance, -ln.susceptance)
                   for ln in net.lines]).reshape(L, 2)
    u0 = np.array([int(init.commitment.get(x.id, 0)) for x in units])
    p0 = np.array([float(init.power.get(x.id, 0.0)) for x in units])
    first = np.arange(T) == 0

    # day-ahead nodal balance over (n, t): units, farms, then at each
    # line end on n that line's angles; flow limits over (l, t)
    m.add_rows(*_node_rows(
        (np.where(unit_at[:, None], p.T, -1), 1.0),
        (np.where(farm_at[:, None], w.T, -1), 1.0),
        (np.where(end_at[:, None, :, :, None],
                  da.transpose(2, 0, 1)[:, :, None], -1),
         np.stack([-su, su], axis=-1))), demand, demand)
    m.add_rows(da.transpose(0, 2, 1), su[:, None], -cap, cap)

    # commitment logic over (i, t): startup, shutdown, then strengthened
    # min up and min down rows for each later hour t + d < T that the
    # minimum time reaches; each row reads (head, u[t], u[t-1])
    d = np.arange(1, T)
    later = u[:, np.minimum(np.arange(T)[:, None] + d, T - 1)]
    kind = np.repeat([0, 1, 2, 3], [1, 1, T - 1, T - 1])
    cols = np.stack(np.broadcast_arrays(
        np.concatenate([y[..., None], z[..., None], later, later], axis=-1),
        u[..., None], _lag(u)[..., None]), axis=-1)
    vals = np.array([[1, -1, 1], [1, 1, -1], [1, -1, 1], [1, -1, 1]])[kind]
    lo_on = np.where(first, -u0[:, None], 0)
    lo = np.stack(np.broadcast_arrays(
        lo_on, np.where(first, u0[:, None], 0), lo_on, -np.inf), -1)[..., kind]
    hi = np.stack(np.broadcast_arrays(np.inf, np.inf, np.inf, np.where(
        first, 1.0 - u0[:, None], 1.0)), -1)[..., kind]
    ahead = np.concatenate([[0, 0], d, d])
    reach = np.stack(np.broadcast_arrays(
        T, T, per_unit("min_up"), per_unit("min_down")), -1)[:, None, kind]
    keep = (np.arange(T)[:, None] + ahead < T) & (ahead < reach)
    m.add_rows(cols[keep], np.broadcast_to(vals, cols.shape)[keep],
               lo[keep], hi[keep])

    # real-time stage, scenario by scenario: nodal balance over (n, t),
    # capacity up/down and ramping up/down over (i, t, kind), and flow
    # limits over (l, t)
    none = np.full_like(u, -1)
    ramps = np.array([[1, 1, 0, 0], [1, -1, 0, 0], [1, -1, 1, -1],
                      [1, -1, -1, 1]]) * np.ones((I, 1, 1))
    ramps[:, :2, 2] = -np.stack([per_unit("p_max"), per_unit("p_min")], 1)
    ramp_up = per_unit("ramp_up")[:, None]
    ramp_dn = per_unit("ramp_down")[:, None]
    ramp_lo = np.stack(np.broadcast_arrays(-np.inf, 0.0, -np.inf, np.where(
        first, p0[:, None] - ramp_dn, -ramp_dn)), axis=-1)
    ramp_hi = np.stack(np.broadcast_arrays(0.0, np.inf, np.where(
        first, ramp_up + p0[:, None], ramp_up), np.inf), axis=-1)
    # 0.0 - wind, farm by farm: the sign of a zero right-hand side and the
    # rounding of the sum reach HiGHS
    rhs = np.subtract.reduce(np.where(farm_at[:, :, None, None], wind, 0.0),
                             axis=1, initial=0.0)         # (N, S, T)
    for s in range(S):
        ru, rd, out = r_up[:, s], r_dn[:, s], 1.0 - alpha[s]
        # entries over (t, unit, 3), (t, line, end, 4) and (t, farm, 2)
        unit_terms = np.stack([ru.T, rd.T, np.where(out != 0, p, -1).T], -1)
        line_terms = np.stack([da[:, 0].T, rt[:, 0, s].T, da[:, 1].T,
                               rt[:, 1, s].T], -1)[:, :, None]
        farm_terms = np.stack([w.T, spill[:, s].T], -1)
        m.add_rows(*_node_rows(
            (np.where(unit_at[:, None, :, None], unit_terms, -1),
             np.stack(np.broadcast_arrays(1.0, -1.0, -out.T), -1)),
            (np.where(end_at[:, None, :, :, None], line_terms, -1),
             np.stack([su, -su, -su, su], axis=-1)),
            (np.where(farm_at[:, None, :, None], farm_terms, -1), -1.0),
            (shed[:, s, :, None], 1.0)), rhs[:, s], rhs[:, s])
        m.add_rows(np.stack([np.stack(k, axis=-1) for k in (
            (p, ru, u, none), (p, rd, u, none),
            (p, _lag(p), ru, _lag(ru)), (p, _lag(p), rd, _lag(rd)))],
            axis=-2), ramps[:, None], ramp_lo, ramp_hi)
        m.add_rows(rt[:, :, s].transpose(0, 2, 1), su[:, None], -cap, cap)

    if instance.freq_mode != "off":
        _add_frequency_rows(m, vm, instance)

    m.c[y] = per_unit("cost_startup")[:, None]
    m.c[z] = per_unit("cost_shutdown")[:, None]
    m.c[p] = per_unit("cost_energy")[:, None]
    pi_s = pi[None, :, None]
    # outage branches weight reserve costs by their small probabilities,
    # down to 9.97e-5 on the shipped study; that is HiGHS's "excessively
    # small costs" warning, and as the costs are real a uniform rescale
    # would only hide it
    m.c[r_up] = pi_s * per_unit("cost_res_up")[:, None, None]
    m.c[r_dn] = -pi_s * per_unit("cost_res_down")[:, None, None]
    m.c[shed] = pi_s * net.value_of_lost_load
    return BuiltModel(model=m, vars=vm, instance=instance)


def _add_frequency_rows(m: SolverModel, vm: VarMap,
                        instance: UcInstance) -> None:
    """Frequency-security rows, written once per credible outage unit.

    After an outage, turbine fraction F, droop R and synchronous inertia M
    are affine in u at the contingency hour less the lost unit, the same
    on every wind path, so each unit's rows read u without that unit.
    RoCoF, (rocof_lim/f_b) (M + M_v) >= dP, and quasi steady state,
    (ss_lim/f_b) (D + R) >= dP, bound M and R from below. Bounds mode
    writes M >= max(RoCoF bound, m_lim), R >= max(QSS bound, r_lim) and
    F >= f_lim: the nadir box, like its cloud, bounds synchronous M. Pwl
    mode writes those two rows, a column t3 with a R + b F + c M + d <= t3
    per segment (fitted over synchronous M too), and t3 <= nadir_lim.
    """
    tree, limits, f_b = instance.tree, instance.limits, instance.limits.f_base
    fw = frequency_weights(instance.units, instance.fleet)
    t = tree.contingency_hour
    # a unit of no size trips nothing, so it gets no rows
    lost = [uid for uid, size in tree.outage_size.items() if size > 0]
    if not lost:
        return
    dp = np.array([tree.outage_size[uid] for uid in lost])[:, None]
    # (U, 1, I): u at the contingency hour, each lost unit's column -1
    on = np.where(np.array(tree.unit_ids) != np.array(lost)[:, None],
                  vm.u[:, t], -1)[:, None]
    surrogates = [instance.surrogates[uid] for uid in lost]
    weights = np.stack([fw.m_w, fw.r_w, fw.f_w])          # M, R, F
    lo = np.hstack([dp * f_b / limits.rocof_lim - fw.m_v,
                    dp * f_b / limits.ss_lim - fw.d])     # (U, 2) on M, R
    if instance.freq_mode == "bounds":
        box = np.array([[b.m_lim, b.r_lim, b.f_lim] for b in surrogates])
        box[:, :2] = np.maximum(box[:, :2], lo)
        m.add_rows(on, weights, box, np.inf)
        return
    t3 = m.add_vars(len(lost), -np.inf, np.inf)
    for k, fit in enumerate(surrogates):
        a, b, c, d = fit.coeffs.T[..., None]
        m.add_rows(on[k], weights[:2], lo[k], np.inf)
        m.add_rows(np.hstack([t3[k], on[k, 0], on[k, 0], on[k, 0]]),
                   np.hstack([-np.ones_like(a), a * fw.r_w, b * fw.f_w,
                              c * fw.m_w]), -np.inf, -d[:, 0])
        m.add_rows(t3[k, None], 1.0, -np.inf, limits.nadir_lim)


def _lag(cols: np.ndarray) -> np.ndarray:
    """``cols`` an hour earlier on the last axis, -1 at the first hour."""
    return np.concatenate([np.full(cols.shape[:-1] + (1,), -1),
                           cols[..., :-1]], axis=-1)


def _node_rows(*parts) -> tuple[np.ndarray, np.ndarray]:
    """``(cols, vals)`` of rows over (n, t) holding the entries of
    ``parts`` side by side; in each part ``(cols, vals)`` the two
    broadcast together to (N, T, ...) and the further axes hold
    entries."""
    return tuple(np.concatenate([x.reshape(x.shape[:2] + (-1,)) for x in xs],
                                axis=-1)
                 for xs in zip(*(np.broadcast_arrays(*p) for p in parts)))


def _extract(built: BuiltModel, res: SolveResult) -> UcSolution:
    counts = {"mip_dual_bound": res.mip_dual_bound,
              "mip_node_count": res.mip_node_count,
              "simplex_iterations": res.simplex_iterations}
    if not res.has_solution:
        return UcSolution(status=res.status, objective=None, mip_gap=None,
                          **counts)
    inst, vm = built.instance, built.vars
    x = res.x
    u = np.rint(x[vm.u]).astype(int)
    y = np.rint(x[vm.y]).astype(int)
    z = np.rint(x[vm.z]).astype(int)
    sol = UcSolution(
        status=res.status, objective=res.objective, mip_gap=res.mip_gap,
        u=u, y=y, z=z, p=x[vm.p], w=x[vm.w],
        delta_da=x[vm.delta_da], delta_rt=x[vm.delta_rt],
        r_up=x[vm.r_up], r_dn=x[vm.r_dn],
        spill=x[vm.spill], shed=x[vm.shed], **counts,
    )
    sol.cost_breakdown = cost_breakdown(sol, inst)
    residuals = built.model.residuals(x)
    sol.max_residual = float(residuals.max()) if len(residuals) else 0.0
    return sol


def solve(built: BuiltModel, mip_gap: float = 1e-4,
          time_limit: float = 600.0, backend=None) -> UcSolution:
    """Optimize a built model and extract the solution with diagnostics.

    When the scenario tree has outage branches, ``_start_point`` first
    gives a complete point of the day and its gap to a proven lower
    bound, re-solving its reduced MILP once when the first proof misses.
    A point within ``mip_gap`` is returned as ``optimal`` with no
    full run: it records the bound as ``mip_dual_bound``, the proven gap
    as ``mip_gap``, and 0 nodes and simplex iterations. Otherwise the
    full MILP runs with the point as ``start``, which the ``milp``
    fallback ignores. Every solve this takes gets what is left of
    ``time_limit``, and none writes ``built``.
    """
    from .solver import get_backend
    backend = backend or get_backend()
    t0 = time.perf_counter()

    def left() -> float:
        return max(0.0, time_limit - (time.perf_counter() - t0))

    point, start_iterations = None, None
    if built.instance.tree.outage_size:
        point, start_iterations = _start_point(built, mip_gap, left, backend)
    if point is not None and point.mip_gap <= mip_gap:
        res = point
    else:
        res = backend.solve(built.model, mip_gap=mip_gap, time_limit=left(),
                            **({} if point is None else {"start": point.x}))
    sol = _extract(built, res)
    sol.start_iterations = start_iterations
    return sol


def _start_point(built: BuiltModel, mip_gap: float, left,
                 backend) -> tuple[SolveResult | None, int | None]:
    """A complete feasible point of ``built`` and its proven gap.

    The reduced problem is the built day without the outage branches'
    recourse columns and the rows that read them: it keeps the first
    stage, the no-outage branches at their full-tree probabilities, the
    frequency rows, which read only u, and every cost left. The outage
    branches have no non-anticipativity rows, so the reduced MILP's dual
    bound B plus each dropped column's cost at its cheaper bound, the
    outage term ``c_out``, is a lower bound on the full day; down
    reserve's negative cost makes that term negative.

    The reduced MILP's rounded u, fixed in a ``fixed`` copy of the full
    model, leaves an LP whose solution is the point; ``built.model`` is
    not written, and keeps the assembly the copy shares for a full run.

    A point P that misses ``mip_gap`` (g) would close with a reduced
    bound ``B >= P - g |P| - c_out``, and HiGHS stops the reduced MILP at
    incumbent R once ``(R - B) / |R| <= g_r``. So when ``g_r = (R - P +
    g |P| + c_out) / |R|``, for positive objectives ``1 - (P (1 - g) -
    c_out) / R``, is above 0, the reduced MILP is solved once more from
    its incumbent at ``mip_gap=g_r``. With ``g_r <= 0`` no reduced bound
    can close the proof. The better of the two bounds counts, and the day
    is completed again only if the re-solve changed u, the cheaper point
    being kept.

    Returns the point as the result of a day with no full run: the bound
    as ``mip_dual_bound``, the gap to it relative to the point's objective
    (to 1 when that is 0) as ``mip_gap``, inf with no dual bound, and 0
    nodes and simplex iterations; None when the first reduced solve or
    its completion finds no point. Also returns the simplex iterations of
    every solve taken here. ``left()`` gives each solve its time limit.
    """
    inst, m, vm = built.instance, built.model, built.vars
    out = [s for s, scen in enumerate(inst.tree.scenarios)
           if scen.outage_unit is not None]
    cols = np.concatenate([v[:, out].ravel() for v in (
        vm.r_up, vm.r_dn, vm.spill, vm.shed, vm.delta_rt)])
    # u comes first, so it keeps its indices in the reduced model
    reduced, u = m.without(cols), vm.u.ravel()
    cols = cols[m.c[cols] != 0]     # 0 * inf is nan
    c = m.c[cols]
    c_out = float(np.minimum(c * m.lb[cols], c * m.ub[cols]).sum())
    counts = []

    def counted(res: SolveResult) -> SolveResult:
        counts.append(res.simplex_iterations)
        return res

    def completion(res: SolveResult) -> SolveResult:
        return counted(backend.solve(m.fixed(u, np.rint(res.x[u])),
                                     mip_gap=mip_gap, time_limit=left()))

    def gap(point: SolveResult, bound: float) -> float:
        return (point.objective - bound) / abs(point.objective or 1.0)

    def iterations() -> int | None:
        return None if None in counts else sum(counts)

    res = counted(backend.solve(reduced, mip_gap=mip_gap, time_limit=left()))
    point = completion(res) if res.has_solution else res
    if point.status != "optimal":
        return None, iterations()
    bound = res.mip_dual_bound
    if bound is not None:
        bound += c_out
    if bound is not None and gap(point, bound) > mip_gap:
        # HiGHS's relative gap (R - B) / |R| at which the reduced MILP
        # stops only with the bound B the proof needs
        need = point.objective - mip_gap * abs(point.objective or 1.0) - c_out
        target = (res.objective - need) / abs(res.objective or 1.0)
        if target > 0:
            again = counted(backend.solve(reduced, mip_gap=target,
                                          time_limit=left(), start=res.x))
            if again.mip_dual_bound is not None:
                bound = max(bound, again.mip_dual_bound + c_out)
            if again.has_solution and not np.array_equal(
                    np.rint(again.x[u]), np.rint(res.x[u])):
                other = completion(again)
                if (other.status == "optimal"
                        and other.objective < point.objective):
                    point = other
    proven = np.inf if bound is None else gap(point, bound)
    return replace(point, mip_gap=proven, mip_dual_bound=bound,
                   mip_node_count=0, simplex_iterations=0), iterations()


def residual_scale(instance: UcInstance) -> float:
    return max(1.0, max(max(series[:instance.horizon], default=0.0)
                        for series in instance.network.demand.values()))


def residual_tol(instance: UcInstance) -> float:
    """Largest constraint residual a solution of ``instance`` may keep."""
    return 1e-6 * residual_scale(instance)


def residual_ok(sol: UcSolution, instance: UcInstance) -> bool:
    """Whether the residual is within ``residual_tol``; NaN is not."""
    return bool(sol.max_residual <= residual_tol(instance))


def cost_breakdown(sol: UcSolution, instance: UcInstance) -> dict:
    """Objective split into startup, operation, reserve and shed parts."""
    units = instance.units
    pi = np.array([s.probability for s in instance.tree.scenarios])
    c_su = np.array([u.cost_startup for u in units])
    c_sd = np.array([u.cost_shutdown for u in units])
    c_e = np.array([u.cost_energy for u in units])
    c_rp = np.array([u.cost_res_up for u in units])
    c_rm = np.array([u.cost_res_down for u in units])
    startup = float(c_su @ sol.y.sum(axis=1) + c_sd @ sol.z.sum(axis=1))
    operation = float(c_e @ sol.p.sum(axis=1))
    reserves = float(np.einsum("s,ist,i->", pi, sol.r_up, c_rp)
                     - np.einsum("s,ist,i->", pi, sol.r_dn, c_rm))
    shed = float(instance.network.value_of_lost_load
                 * np.einsum("s,nst->", pi, sol.shed))
    total = startup + operation + reserves + shed
    return {"total": total, "startup": startup, "operation": operation,
            "reserves": reserves, "shed": shed}


# patterns screened per array block, which bounds the screen's temporaries
_SCREEN_BLOCK = 256
# passing patterns per solve_fixed series in brute_force_uc
_CHUNK = 64


def _commitment_patterns(built: BuiltModel):
    """Every u pattern in ``itertools.product`` order, with the implied y, z.

    Returns ``(cols, vals, passes)``: the u, y and z columns, one row of
    their fixed values per pattern, and whether each row keeps u within its
    bounds and satisfies, within ``FEAS_TOL``, every row of the built model
    without its other columns, which are the rows over these columns alone.
    A pattern that does not pass is infeasible. One that passes goes to
    ``solve_fixed``, which runs its LP unless an earlier infeasible LP of
    the same series has already proven it infeasible. Patterns are
    screened ``_SCREEN_BLOCK`` at a time.
    """
    from .solver import FEAS_TOL
    m, vm, inst = built.model, built.vars, built.instance
    I, T = vm.u.shape
    n = I * T
    cols = np.concatenate([vm.u.ravel(), vm.y.ravel(), vm.z.ravel()])
    other = np.ones(m.n_vars, dtype=bool)
    other[cols] = False
    # the rows over these columns alone; u, y and z come first, so they
    # keep their indices and order
    sub = m.without(np.flatnonzero(other))
    asm = sub.assembly()
    # u's bounds screen as identity rows below the fixed rows
    g = np.vstack([asm.csc.toarray(), np.eye(n, len(cols))])
    lo = np.concatenate([asm.row_lo, sub.lb[vm.u.ravel()]])
    hi = np.concatenate([asm.row_hi, sub.ub[vm.u.ravel()]])
    u0 = np.array([[int(inst.initial.commitment.get(unit.id, 0))]
                   for unit in inst.units])
    # bit j of pattern k, most significant first, as itertools.product
    shifts = np.arange(n - 1, -1, -1)
    vals = np.empty((2 ** n, len(cols)))
    passes = np.empty(2 ** n, dtype=bool)
    for start in range(0, 2 ** n, _SCREEN_BLOCK):
        k = np.arange(start, min(start + _SCREEN_BLOCK, 2 ** n))
        u = ((k[:, None] >> shifts) & 1).reshape(-1, I, T)
        du = np.diff(u, axis=2, prepend=np.broadcast_to(u0, (len(k), I, 1)))
        vals[k] = np.concatenate([u, np.maximum(du, 0), np.maximum(-du, 0)],
                                 axis=1).reshape(len(k), -1)
        gx = vals[k] @ g.T
        passes[k] = ~(np.any(lo - gx > FEAS_TOL, axis=1)
                      | np.any(gx - hi > FEAS_TOL, axis=1))
    return cols, vals, passes


def brute_force_uc(instance: UcInstance, backend=None) -> UcSolution:
    """Exhaustive commitment enumeration as a testing oracle.

    Fixes every u (and the implied y, z) pattern and solves the remaining
    continuous problem with the same model builder, keeping the best
    feasible solution. Patterns that break u's bounds or a row over the
    commitment variables alone (min up/down, startup/shutdown, and the
    RoCoF, quasi-steady-state and nadir-bound rows) are skipped without
    an LP.

    u is the model's only integer family and every pattern fixes it, so
    the builder's integrality flags are cleared and each pattern is a
    plain LP. The passing patterns, in ``itertools.product`` order, are
    cut into chunks of ``_CHUNK``, and each chunk is one
    ``backend.solve_fixed`` series: on HiGHS's direct path its first LP
    solves cold, each later one starts from the basis the last one left,
    and an infeasible LP's dual ray proves later patterns of the same
    chunk infeasible without their LP. A backend without ``solve_fixed``
    solves each pattern on its own (``solver.solve_each``). The model is
    never written. The chunks run on one worker thread per CPU this
    process may use, or per CPU where the platform cannot say. The answer
    is the lowest objective, and among equal objectives the first pattern
    in ``itertools.product`` order; a chunk's LPs, and the patterns it
    skips, depend only on the chunk, not on which worker runs it, so the
    answer is the same for any CPU count.
    If any LP stops at its time limit the result is ``timeout``, with no
    point: that LP might have been the cheapest.
    """
    from . import solver
    I, T = len(instance.units), instance.horizon
    if I * T > 16:
        raise InstanceTooLargeError(
            f"{I * T} binary decisions exceed the brute-force limit of 16")
    built = build_model(instance)
    m = built.model
    # cleared before the assembly is built, here and once, for the workers
    # to share
    m.is_int = [False] * m.n_vars
    m.assembly()
    backend = backend or solver.get_backend()
    series = (getattr(backend, "solve_fixed", None)
              or functools.partial(solver.solve_each, backend))
    cols, vals, passes = _commitment_patterns(built)

    def cheapest(chunk):
        # whether an LP of the chunk timed out, and its cheapest optimal
        # LP as (objective, index, result) or None
        solved = list(zip(series(m, cols, vals[chunk], 60.0), chunk))
        return (any(res.status == "timeout" for res, _ in solved),
                min(((res.objective, k, res) for res, k in solved
                     if res.status == "optimal"),
                    key=lambda b: b[:2], default=None))

    todo = np.flatnonzero(passes)
    # os.sched_getaffinity is missing on macOS and Windows
    n = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=n) as pool:
        found = list(pool.map(cheapest, (todo[i:i + _CHUNK] for i in
                                         range(0, len(todo), _CHUNK))))
    if any(timed_out for timed_out, _ in found):
        return UcSolution(status="timeout", objective=None, mip_gap=None)
    best = min(filter(None, (b for _, b in found)), key=lambda b: b[:2],
               default=None)
    if best is None:
        return UcSolution(status="infeasible", objective=None, mip_gap=None)
    return _extract(built, best[2])


# ---------------------------------------------------------------------------
# instance file IO and solution dumps

def load_instance(path: str | Path,
                  freq_mode: str | None = None) -> UcInstance:
    path = Path(path)
    with open(path) as fh:
        data = json.load(fh)

    def resolve(name):
        ref = Path(data[name])
        return ref if ref.is_absolute() else path.parent / ref

    # the files named here raise their own errors when read below
    try:
        system_file = resolve("system_file") if "system_file" in data else None
        system_data = None if system_file else data["system"]
        wind_csv = resolve("wind_csv")
        netd = data["network"]
        network = Network(
            nodes=list(netd["nodes"]),
            lines=[Line(ln["from"], ln["to"], float(ln["susceptance"]),
                        float(ln["capacity"])) for ln in netd["lines"]],
            demand={n: [float(v) for v in series]
                    for n, series in netd["demand"].items()},
            value_of_lost_load=float(netd["value_of_lost_load"]),
            farms=[WindFarm(f["id"], f["bus"], float(f["capacity"]))
                   for f in netd.get("farms", [])],
        )
        horizon = int(data.get("horizon", 24))
        cont = data.get("contingency", {})
        model = ContingencyModel(
            credible_outages=list(cont.get("credible_outages", [])),
            contingency_hour=int(cont.get("contingency_hour", 1)) - 1,
            lam=1.0 / float(cont.get("mttf", 1000.0)),
            tau=float(cont.get("tau", 1.0)),
        )
    except KeyError as exc:
        raise UcModelError(f"{path}: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise UcModelError(f"{path}: malformed instance: {exc}") from None
    system = (load_system(system_file) if system_file
              else system_from_dict(system_data))
    tree = build_tree(ingest_wind(wind_csv), model, system.units,
                      system.s_base, horizon)
    return UcInstance(
        network=network, units=system.units, fleet=system.fleet,
        tree=tree, limits=system.limits, horizon=horizon,
        t_turbine=system.t_turbine,
        freq_mode=freq_mode or data.get("freq_mode", "off"),
    )


def dump_solution(sol: UcSolution, instance: UcInstance,
                  out_dir: str | Path) -> None:
    """CSV dump per variable family plus costs.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    units = instance.units
    net = instance.network
    with open(out / "commitment.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["unit", "hour", "u", "y", "z"])
        for i, unit in enumerate(units):
            for t in range(instance.horizon):
                wr.writerow([unit.id, t + 1, sol.u[i, t], sol.y[i, t],
                             sol.z[i, t]])
    with open(out / "dispatch.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["asset", "hour", "mw"])
        for i, unit in enumerate(units):
            for t in range(instance.horizon):
                wr.writerow([unit.id, t + 1, f"{sol.p[i, t]:.6f}"])
        for j, farm in enumerate(net.farms):
            for t in range(instance.horizon):
                wr.writerow([farm.id, t + 1, f"{sol.w[j, t]:.6f}"])
    with open(out / "reserves.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["unit", "scenario", "hour", "r_up_mw", "r_dn_mw"])
        for i, unit in enumerate(units):
            for s, scen in enumerate(instance.tree.scenarios):
                for t in range(instance.horizon):
                    wr.writerow([unit.id, scen.id, t + 1,
                                 f"{sol.r_up[i, s, t]:.6f}",
                                 f"{sol.r_dn[i, s, t]:.6f}"])
    node_idx = {n: k for k, n in enumerate(net.nodes)}
    with open(out / "flows.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["line", "stage", "scenario", "hour", "mw"])
        for ln in net.lines:
            a, b = node_idx[ln.node_from], node_idx[ln.node_to]
            name = f"{ln.node_from}-{ln.node_to}"
            for t in range(instance.horizon):
                flow = ln.susceptance * (sol.delta_da[a, t]
                                         - sol.delta_da[b, t])
                wr.writerow([name, "da", "", t + 1, f"{flow:.6f}"])
            for s, scen in enumerate(instance.tree.scenarios):
                for t in range(instance.horizon):
                    flow = ln.susceptance * (sol.delta_rt[a, s, t]
                                             - sol.delta_rt[b, s, t])
                    wr.writerow([name, "rt", scen.id, t + 1, f"{flow:.6f}"])
    with open(out / "costs.json", "w") as fh:
        json.dump({"objective": sol.objective, "status": sol.status,
                   "mip_gap": sol.mip_gap,
                   "breakdown": sol.cost_breakdown}, fh, indent=2)
        fh.write("\n")
