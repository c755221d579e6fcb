"""Two-stage stochastic unit-commitment MILP.

Builds the day-ahead commitment / real-time recourse model over a DC
network with joint wind and outage scenarios, optionally extended with
frequency-security rows (RoCoF, nadir surrogate, quasi-steady-state).
The nadir surrogate comes either as per-contingency variable bounds or as
max-affine epigraph rows.

Aggregate frequency quantities are linear in the commitment binaries, so
the model substitutes them directly instead of carrying the intermediate
per-unit gain variables; the solution extractor reconstructs those from
their defining identities.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .freq_dynamics import frequency_weights
from .nadir_linearization import NadirBounds, PwlFit
from .scenarios import ContingencyModel, ScenarioTree, build_tree, ingest_wind
from .solver import INF, SolveResult, SolverModel, get_backend
from .system import (ConverterFleet, FrequencyLimits,
                     SynchronousUnit, load_system, s_base,
                     system_from_dict)

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

    @property
    def s_base(self) -> float:
        return s_base(self.units, self.fleet)

    @property
    def m_v(self) -> float:
        return frequency_weights(self.units, self.fleet).m_v

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
        if self.freq_mode in ("bounds", "pwl"):
            needed = {s.outage_unit for s in self.tree.scenarios
                      if s.outage_unit is not None}
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
    k: np.ndarray | None = None       # (I, S, T) scaled gains
    f_sys: np.ndarray | None = None   # (S, T) aggregate turbine fraction
    r_sys: np.ndarray | None = None   # (S, T) aggregate droop
    m_sys: np.ndarray | None = None   # (S, T) synchronous inertia
    cost_breakdown: dict | None = None
    max_residual: float | None = None

    @property
    def feasible(self) -> bool:
        return self.status in ("optimal", "timeout") and self.u is not None


def build_model(instance: UcInstance) -> BuiltModel:
    """Assemble the full two-stage MILP for one scheduling day."""
    instance.validate()
    net, units, tree = instance.network, instance.units, instance.tree
    T = instance.horizon
    I, J, N = len(units), len(net.farms), len(net.nodes)
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
    p = m.add_vars(I * T, 0, INF).reshape(I, T)
    w = m.add_vars(J * T, 0, INF).reshape(J, T)
    delta_da = m.add_vars(N * T, -INF, INF).reshape(N, T)
    delta_rt = m.add_vars(N * S * T, -INF, INF).reshape(N, S, T)
    r_up = m.add_vars(I * S * T, 0, INF).reshape(I, S, T)
    r_dn = m.add_vars(I * S * T, 0, INF).reshape(I, S, T)
    spill = m.add_vars(J * S * T, 0, INF).reshape(J, S, T)
    shed = m.add_vars(N * S * T, 0, INF).reshape(N, S, T)
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

    units_at = {n: [] for n in range(N)}
    for i, unit in enumerate(units):
        units_at[node_idx[unit.bus]].append(i)
    farms_at = {n: [] for n in range(N)}
    for j, farm in enumerate(net.farms):
        farms_at[node_idx[farm.bus]].append(j)
    lines_at = {n: [] for n in range(N)}   # (line index, sign-from-node)
    for e, ln in enumerate(net.lines):
        lines_at[node_idx[ln.node_from]].append((e, +1))
        lines_at[node_idx[ln.node_to]].append((e, -1))

    u0 = {u_.id: int(instance.initial.commitment.get(u_.id, 0))
          for u_ in units}
    p0 = {u_.id: float(instance.initial.power.get(u_.id, 0.0))
          for u_ in units}

    # day-ahead nodal balance and flow limits
    for n in range(N):
        for t in range(T):
            entries = [(p[i, t], 1.0) for i in units_at[n]]
            entries += [(w[j, t], 1.0) for j in farms_at[n]]
            for e, sign in lines_at[n]:
                ln = net.lines[e]
                a, b = node_idx[ln.node_from], node_idx[ln.node_to]
                entries.append((delta_da[a, t], -sign * ln.susceptance))
                entries.append((delta_da[b, t], sign * ln.susceptance))
            m.add_eq(entries, demand[n, t])
    for ln in net.lines:
        a, b = node_idx[ln.node_from], node_idx[ln.node_to]
        for t in range(T):
            m.add_row([(delta_da[a, t], ln.susceptance),
                       (delta_da[b, t], -ln.susceptance)],
                      -ln.capacity, ln.capacity)

    # commitment logic: startup/shutdown and strengthened min up/down
    for i, unit in enumerate(units):
        for t in range(T):
            if t == 0:
                m.add_ge([(y[i, t], 1.0), (u[i, t], -1.0)], -u0[unit.id])
                m.add_ge([(z[i, t], 1.0), (u[i, t], 1.0)], u0[unit.id])
            else:
                m.add_ge([(y[i, t], 1.0), (u[i, t], -1.0),
                          (u[i, t - 1], 1.0)], 0.0)
                m.add_ge([(z[i, t], 1.0), (u[i, t], 1.0),
                          (u[i, t - 1], -1.0)], 0.0)
            for tau in range(t, min(t + unit.min_up - 1, T - 1) + 1):
                if tau == t:
                    continue
                if t == 0:
                    m.add_ge([(u[i, tau], 1.0), (u[i, t], -1.0)],
                             -u0[unit.id])
                else:
                    m.add_ge([(u[i, tau], 1.0), (u[i, t], -1.0),
                              (u[i, t - 1], 1.0)], 0.0)
            for tau in range(t, min(t + unit.min_down - 1, T - 1) + 1):
                if tau == t:
                    continue
                if t == 0:
                    m.add_le([(u[i, tau], 1.0), (u[i, t], -1.0)],
                             1.0 - u0[unit.id])
                else:
                    m.add_le([(u[i, tau], 1.0), (u[i, t], -1.0),
                              (u[i, t - 1], 1.0)], 1.0)

    # real-time balance, capacity, ramping and flow limits
    for s in range(S):
        for n in range(N):
            for t in range(T):
                entries = []
                rhs = 0.0
                for i in units_at[n]:
                    entries.append((r_up[i, s, t], 1.0))
                    entries.append((r_dn[i, s, t], -1.0))
                    out = 1.0 - alpha[s, i, t]
                    if out:
                        entries.append((p[i, t], -out))
                for e, sign in lines_at[n]:
                    ln = net.lines[e]
                    a, b = node_idx[ln.node_from], node_idx[ln.node_to]
                    su = sign * ln.susceptance
                    entries += [(delta_da[a, t], su), (delta_rt[a, s, t], -su),
                                (delta_da[b, t], -su), (delta_rt[b, s, t], su)]
                for j in farms_at[n]:
                    rhs -= wind[j, s, t]
                    entries.append((w[j, t], -1.0))
                    entries.append((spill[j, s, t], -1.0))
                entries.append((shed[n, s, t], 1.0))
                m.add_eq(entries, rhs)
        for i, unit in enumerate(units):
            for t in range(T):
                m.add_le([(p[i, t], 1.0), (r_up[i, s, t], 1.0),
                          (u[i, t], -unit.p_max)], 0.0)
                m.add_ge([(p[i, t], 1.0), (r_dn[i, s, t], -1.0),
                          (u[i, t], -unit.p_min)], 0.0)
                if t == 0:
                    m.add_le([(p[i, t], 1.0), (r_up[i, s, t], 1.0)],
                             unit.ramp_up + p0[unit.id])
                    m.add_ge([(p[i, t], 1.0), (r_dn[i, s, t], -1.0)],
                             p0[unit.id] - unit.ramp_down)
                else:
                    m.add_le([(p[i, t], 1.0), (p[i, t - 1], -1.0),
                              (r_up[i, s, t], 1.0), (r_up[i, s, t - 1], -1.0)],
                             unit.ramp_up)
                    m.add_ge([(p[i, t], 1.0), (p[i, t - 1], -1.0),
                              (r_dn[i, s, t], -1.0), (r_dn[i, s, t - 1], 1.0)],
                             -unit.ramp_down)
        for ln in net.lines:
            a, b = node_idx[ln.node_from], node_idx[ln.node_to]
            for t in range(T):
                m.add_row([(delta_rt[a, s, t], ln.susceptance),
                           (delta_rt[b, s, t], -ln.susceptance)],
                          -ln.capacity, ln.capacity)

    if instance.freq_mode != "off":
        _add_frequency_rows(m, vm, instance)

    m.c[y] = per_unit("cost_startup")[:, None]
    m.c[z] = per_unit("cost_shutdown")[:, None]
    m.c[p] = per_unit("cost_energy")[:, None]
    pi_s = pi[None, :, None]
    m.c[r_up] = pi_s * per_unit("cost_res_up")[:, None, None]
    m.c[r_dn] = -pi_s * per_unit("cost_res_down")[:, None, None]
    m.c[shed] = pi_s * net.value_of_lost_load
    return BuiltModel(model=m, vars=vm, instance=instance)


def _add_frequency_rows(m: SolverModel, vm: VarMap,
                        instance: UcInstance) -> None:
    """RoCoF, quasi-steady-state and nadir-surrogate rows.

    The aggregate turbine fraction, droop and inertia are affine in the
    commitment binaries (availability is a parameter), so the rows are
    written directly on u.
    """
    units, tree, limits = instance.units, instance.tree, instance.limits
    fw = frequency_weights(units, instance.fleet)
    r_w, f_w, m_w, d_const, m_v = fw.r_w, fw.f_w, fw.m_w, fw.d, fw.m_v
    alpha = tree.availability
    f_b = limits.f_base
    S, T = len(tree.scenarios), instance.horizon
    outage_of = [s.outage_unit for s in tree.scenarios]

    for s in range(S):
        for t in range(T):
            dp = tree.outage_size[s, t]
            # with no outage every row below reads (coefficients >= 0) . u
            # >= a bound <= 0, which any commitment meets
            if dp <= 0:
                continue
            a = alpha[s, :, t]
            m_entries = [(vm.u[i, t], m_w[i]) for i in range(len(units))
                         if a[i]]
            r_entries = [(vm.u[i, t], r_w[i]) for i in range(len(units))
                         if a[i]]
            f_entries = [(vm.u[i, t], f_w[i]) for i in range(len(units))
                         if a[i]]
            # RoCoF: (rocof_lim/f_b) * (M + M_v) >= dP
            m.add_ge(m_entries, dp * f_b / limits.rocof_lim - m_v)
            # quasi steady state: (ss_lim/f_b) * (D + R) >= dP
            m.add_ge(r_entries, dp * f_b / limits.ss_lim - d_const)
            if instance.freq_mode == "bounds":
                bounds = instance.surrogates[outage_of[s]]
                m.add_ge(f_entries, bounds.f_lim)
                m.add_ge(r_entries, bounds.r_lim)
                m.add_ge(m_entries, bounds.m_lim - m_v)
            else:
                fit = instance.surrogates[outage_of[s]]
                t3, = m.add_vars(1, -INF, INF)
                for seg in fit.segments:
                    entries = [(t3, -1.0)]
                    entries += [(idx, seg.a * coef) for idx, coef in r_entries]
                    entries += [(idx, seg.b * coef) for idx, coef in f_entries]
                    entries += [(idx, seg.c * coef) for idx, coef in m_entries]
                    m.add_le(entries, -(seg.d + seg.c * m_v))
                m.add_le([(t3, 1.0)], limits.nadir_lim)


def _extract(built: BuiltModel, res: SolveResult) -> UcSolution:
    if not res.has_solution:
        return UcSolution(status=res.status, objective=None, mip_gap=None)
    inst, vm = built.instance, built.vars
    x = res.x
    u = np.rint(x[vm.u]).astype(int)
    y = np.rint(x[vm.y]).astype(int)
    z = np.rint(x[vm.z]).astype(int)
    fw = frequency_weights(inst.units, inst.fleet)
    alpha = inst.tree.availability
    # k_{i,s,t} = k_i * u_{i,t} * alpha_{s,i,t}, reshaped to (I, S, T)
    k = (fw.k[None, :, None] * u[None, :, :] * alpha).transpose(1, 0, 2)
    ualpha = u[None, :, :] * alpha     # (S, I, T)
    f_sys = np.einsum("sit,i->st", ualpha, fw.f_w)
    r_sys = np.einsum("sit,i->st", ualpha, fw.r_w)
    m_sys = np.einsum("sit,i->st", ualpha, fw.m_w)

    sol = UcSolution(
        status=res.status, objective=res.objective, mip_gap=res.mip_gap,
        u=u, y=y, z=z, p=x[vm.p], w=x[vm.w],
        delta_da=x[vm.delta_da], delta_rt=x[vm.delta_rt],
        r_up=x[vm.r_up], r_dn=x[vm.r_dn],
        spill=x[vm.spill], shed=x[vm.shed],
        k=k, f_sys=f_sys, r_sys=r_sys, m_sys=m_sys,
    )
    sol.cost_breakdown = cost_breakdown(sol, inst)
    residuals = built.model.residuals(x)
    sol.max_residual = float(residuals.max()) if len(residuals) else 0.0
    return sol


def solve(built: BuiltModel, mip_gap: float = 1e-4,
          time_limit: float = 600.0, backend=None) -> UcSolution:
    """Optimize a built model and extract the solution with diagnostics."""
    backend = backend or get_backend()
    res = backend.solve(built.model, mip_gap=mip_gap, time_limit=time_limit)
    return _extract(built, res)


def residual_scale(instance: UcInstance) -> float:
    return max(1.0, max(max(series[:instance.horizon], default=0.0)
                        for series in instance.network.demand.values()))


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


# HiGHS's default primal feasibility tolerance: a row over fixed columns
# that misses its bounds by more makes the LP infeasible
_FEAS_TOL = 1e-7


def _commitment_patterns(built: BuiltModel):
    """Every u pattern in ``itertools.product`` order, with the implied y, z.

    Yields ``(cols, vals, passes)``: the u, y and z columns, their fixed
    values, and whether those values keep u within its bounds and satisfy,
    within ``_FEAS_TOL``, every row with no entry outside these columns.
    A pattern that does not pass is infeasible; one that passes needs an LP.
    """
    m, vm, inst = built.model, built.vars, built.instance
    I, T = vm.u.shape
    cols = np.concatenate([vm.u.ravel(), vm.y.ravel(), vm.z.ravel()])
    a = m.matrix()
    other = np.ones(m.n_vars, dtype=bool)
    other[cols] = False
    rows = np.flatnonzero(a[:, other].getnnz(axis=1) == 0)
    # u's bounds screen as identity rows below the fixed rows
    g = np.vstack([a[rows][:, cols].toarray(), np.eye(I * T, len(cols))])
    u_cols = vm.u.ravel()
    lo = np.concatenate([np.array(m.row_lo)[rows], m.lb[u_cols]])
    hi = np.concatenate([np.array(m.row_hi)[rows], m.ub[u_cols]])
    u0 = np.array([[int(inst.initial.commitment.get(unit.id, 0))]
                   for unit in inst.units])
    for pattern in itertools.product((0, 1), repeat=I * T):
        u = np.array(pattern).reshape(I, T)
        du = np.diff(u, axis=1, prepend=u0)
        vals = np.concatenate([u.ravel(), np.maximum(du, 0).ravel(),
                               np.maximum(-du, 0).ravel()]).astype(float)
        gx = g @ vals
        passes = not (np.any(lo - gx > _FEAS_TOL)
                      or np.any(gx - hi > _FEAS_TOL))
        yield cols, vals, passes


def brute_force_uc(instance: UcInstance, backend=None) -> UcSolution:
    """Exhaustive commitment enumeration as a testing oracle.

    Fixes every u (and the implied y, z) pattern and solves the remaining
    continuous problem with the same model builder, keeping the best
    feasible solution. Patterns that break u's bounds or a row over the
    commitment variables alone (min up/down, startup/shutdown, and the
    RoCoF, quasi-steady-state and nadir-bound rows) are skipped without
    an LP.
    """
    I, T = len(instance.units), instance.horizon
    if I * T > 16:
        raise InstanceTooLargeError(
            f"{I * T} binary decisions exceed the brute-force limit of 16")
    built = build_model(instance)
    m = built.model
    backend = backend or get_backend()

    # every pattern fixes the same columns, so each overwrites the last
    base_lb, base_ub = m.lb.copy(), m.ub.copy()
    best: UcSolution | None = None
    for cols, vals, passes in _commitment_patterns(built):
        if not passes:
            continue
        m.lb[cols] = m.ub[cols] = vals
        res = backend.solve(m, mip_gap=1e-9, time_limit=60.0)
        if res.status != "optimal":
            continue
        if best is None or res.objective < best.objective:
            best = _extract(built, res)
    m.lb = base_lb
    m.ub = base_ub
    if best is None:
        return UcSolution(status="infeasible", objective=None, mip_gap=None)
    return best


# ---------------------------------------------------------------------------
# instance file IO and solution dumps

def instance_from_dict(data: dict, base_dir: Path | None = None,
                       freq_mode: str | None = None) -> UcInstance:
    base_dir = base_dir or Path(".")

    def resolve(name):
        path = Path(data[name])
        return path if path.is_absolute() else base_dir / path

    if "system_file" in data:
        system = load_system(resolve("system_file"))
    else:
        system = system_from_dict(data["system"])
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
    wind = ingest_wind(resolve("wind_csv"))
    cont = data.get("contingency", {})
    model = ContingencyModel(
        credible_outages=list(cont.get("credible_outages", [])),
        contingency_hour=int(cont.get("contingency_hour", 1)) - 1,
        lam=1.0 / float(cont.get("mttf", 1000.0)),
        tau=float(cont.get("tau", 1.0)),
    )
    tree = build_tree(wind, model, system.units, system.s_base, horizon)
    instance = UcInstance(
        network=network, units=system.units, fleet=system.fleet,
        tree=tree, limits=system.limits, horizon=horizon,
        t_turbine=system.t_turbine,
        freq_mode=freq_mode or data.get("freq_mode", "off"),
    )
    return instance


def load_instance(path: str | Path,
                  freq_mode: str | None = None) -> UcInstance:
    path = Path(path)
    with open(path) as fh:
        data = json.load(fh)
    return instance_from_dict(data, base_dir=path.parent,
                              freq_mode=freq_mode)


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
