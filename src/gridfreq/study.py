"""Multi-day rolling-horizon scheduling study.

Runs the two-stage UC day by day with state carried across midnight,
re-evaluates the frequency metrics on the realized commitments, and
writes CSV reports comparing a frequency-constrained run against an
unconstrained one.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import __version__
from .freq_dynamics import (AggregateParams, LimitGaps, aggregate_params,
                            check_limits, frequency_metrics,
                            frequency_weights, simulate_step_response)
from .nadir_linearization import (cloud_point, enumerate_commitments,
                                  extract_bounds, fit_pwl, make_nadir_fn,
                                  nadir_grid)
from .scenarios import ContingencyModel, WindScenario, build_tree
from .system import PowerSystem
from .uc_core import (InitialState, Network, UcInstance, UcSolution,
                      build_model, dump_solution, residual_ok,
                      residual_tol, solve)


class StudyError(RuntimeError):
    pass


@dataclass
class StudyConfig:
    n_days: int = 5
    fc_start_day: int = 3            # 1-based day where freq rows activate
    contingency_hour: int = 67       # 1-based global hour, within FC days
    freq_mode: str = "bounds"        # surrogate used on FC days
    mip_gap: float = 1e-2
    time_limit: float = 90.0
    seed: int = 0
    out_dir: str | None = None

    @property
    def contingency_day(self) -> int:
        return (self.contingency_hour - 1) // 24 + 1

    @property
    def contingency_local_hour(self) -> int:
        return (self.contingency_hour - 1) % 24 + 1

    def validate(self) -> None:
        if not 1 <= self.contingency_hour <= 24 * self.n_days:
            raise StudyError("contingency_hour outside the study horizon")
        if self.freq_mode == "off":
            return
        if self.freq_mode not in ("bounds", "pwl"):
            raise StudyError("freq_mode must be off, bounds or pwl")
        if not 1 <= self.fc_start_day <= self.n_days:
            raise StudyError("fc_start_day outside the study horizon")
        if self.contingency_day < self.fc_start_day:
            raise StudyError(
                "contingency hour falls before frequency constraints start")


@dataclass
class StudyTemplate:
    """Everything constant across days of one study."""

    network: Network           # demand over the full study horizon
    system: PowerSystem
    wind: list[WindScenario]   # realizations over the full horizon
    contingency: ContingencyModel   # local (within-day) outage placement
    initial: InitialState


@dataclass
class DayResult:
    day: int                   # 1-based
    freq_mode: str
    instance: UcInstance
    solution: UcSolution


@dataclass
class StudyResult:
    config: StudyConfig
    template: StudyTemplate
    days: list[DayResult]

    def solution_u(self) -> np.ndarray:
        """Commitment matrix (I, n_days*24) across the whole study."""
        return np.concatenate([d.solution.u for d in self.days], axis=1)

    def total_cost(self) -> float:
        return sum(d.solution.objective for d in self.days)


def prepare_surrogates(units, fleet, limits, t_turbine, outages,
                       freq_mode: str, seed: int = 0) -> dict:
    """Per-outage nadir surrogates (bound boxes or max-affine fits)."""
    out: dict = {}
    for uid in outages:
        cloud = enumerate_commitments(units, uid, fleet, limits, t_turbine)
        if freq_mode == "bounds":
            out[uid] = extract_bounds(cloud, limits)
        else:
            fn = make_nadir_fn(cloud.d, t_turbine, cloud.delta_p, limits,
                               m_v=cloud.m_v)
            out[uid] = fit_pwl(fn, nadir_grid(cloud, 6), 4, restarts=60,
                               seed=seed)
    return out


def _slice_day(template: StudyTemplate, day: int) -> tuple[Network,
                                                           list[WindScenario]]:
    lo, hi = (day - 1) * 24, day * 24
    net = template.network
    day_net = Network(
        nodes=net.nodes, lines=net.lines,
        demand={n: series[lo:hi] for n, series in net.demand.items()},
        value_of_lost_load=net.value_of_lost_load, farms=net.farms)
    day_wind = [
        WindScenario(w.id, w.probability,
                     {farm: series[lo:hi]
                      for farm, series in w.realization.items()})
        for w in template.wind]
    return day_net, day_wind


def day_instance(template: StudyTemplate, day: int, freq_mode: str,
                 initial: InitialState, surrogates: dict | None
                 ) -> UcInstance:
    day_net, day_wind = _slice_day(template, day)
    system = template.system
    tree = build_tree(day_wind, template.contingency, system.units,
                      system.s_base, 24)
    return UcInstance(network=day_net, units=system.units,
                      fleet=system.fleet, tree=tree, limits=system.limits,
                      horizon=24, t_turbine=system.t_turbine,
                      freq_mode=freq_mode, surrogates=surrogates,
                      initial=initial)


def _carry_state(units, days: list[DayResult]) -> InitialState:
    """Initial state for the day after the last of ``days``.

    Each unit's trailing on or off run is counted over the commitments
    of all ``days``, so it spans day boundaries.
    """
    u = np.concatenate([d.solution.u for d in days], axis=1)
    T = u.shape[1]
    last = u[:, -1]
    # hours after each unit's last change of state (-1: never changed)
    run = T - 1 - np.where(u != last[:, None], np.arange(T), -1).max(axis=1)
    p_last = days[-1].solution.p[:, -1]
    nxt = InitialState()
    for i, unit in enumerate(units):
        nxt.commitment[unit.id] = int(last[i])
        nxt.power[unit.id] = float(p_last[i])
        if last[i]:
            nxt.min_up_left[unit.id] = max(0, unit.min_up - int(run[i]))
        else:
            nxt.min_down_left[unit.id] = max(0, unit.min_down - int(run[i]))
    return nxt


def assert_cloud_membership(instance: UcInstance, sol: UcSolution) -> None:
    """Bounds mode is conservative only over enumerated commitments.

    Verify each outage unit's realized post-contingency aggregates match
    its enumerated cloud point, so conservativeness carries over exactly.
    Only the realized point is summed, with the enumeration's own
    arithmetic, so no cloud is built.
    """
    t = instance.tree.contingency_hour
    online = {u.id for u, on in zip(instance.units, sol.u[:, t]) if on}
    for uid in instance.tree.outage_size:
        agg, _ = _after_outage(sol, instance, uid)
        m, r_g, f_g = cloud_point(instance.units, uid, instance.fleet, online)
        if not (abs(m - agg.m) < 1e-9 and abs(r_g - agg.r_g) < 1e-9
                and abs(f_g - agg.f_g) < 1e-9):
            raise StudyError(
                f"realized aggregate for outage {uid} not in "
                f"the enumerated commitment set")


def run_study(template: StudyTemplate, config: StudyConfig,
              prefix: StudyResult | None = None) -> StudyResult:
    """Sequential daily solves with carryover; freq rows from fc_start_day.

    ``prefix`` reuses already-solved unconstrained days from another study
    of the same template (the days before fc_start_day are identical in a
    paired constrained/unconstrained comparison).
    """
    config.validate()
    if (config.contingency_local_hour - 1
            != template.contingency.contingency_hour):
        raise StudyError(
            "template contingency hour does not match the study config")
    system = template.system
    surrogates = None
    if config.freq_mode != "off":
        surrogates = prepare_surrogates(
            system.units, system.fleet, system.limits, system.t_turbine,
            template.contingency.credible_outages, config.freq_mode,
            config.seed)

    days: list[DayResult] = []
    state = template.initial
    first_day = 1
    if prefix is not None and config.freq_mode != "off":
        n_shared = min(config.fc_start_day - 1, len(prefix.days))
        for d in prefix.days[:n_shared]:
            if d.freq_mode != "off":
                raise StudyError("prefix days must be unconstrained")
            days.append(d)
        if days:
            state = _carry_state(system.units, days)
        first_day = n_shared + 1
    for day in range(first_day, config.n_days + 1):
        mode = ("off" if config.freq_mode == "off"
                or day < config.fc_start_day else config.freq_mode)
        inst = day_instance(template, day, mode, state, surrogates)
        sol = solve(build_model(inst), mip_gap=config.mip_gap,
                    time_limit=config.time_limit)
        if not sol.feasible:
            raise StudyError(
                f"day {day} ({mode}) came back {sol.status}")
        if not residual_ok(sol, inst):
            raise StudyError(
                f"day {day} ({mode}) residual {sol.max_residual:.3e} "
                f"exceeds tolerance {residual_tol(inst):.3e}")
        if mode == "bounds":
            assert_cloud_membership(inst, sol)
        days.append(DayResult(day=day, freq_mode=mode, instance=inst,
                              solution=sol))
        state = _carry_state(system.units, days)
    result = StudyResult(config=config, template=template, days=days)
    if config.out_dir is not None:
        for d in days:
            dump_solution(d.solution, d.instance,
                          Path(config.out_dir) / f"day{d.day}")
    return result


def _after_outage(sol: UcSolution, instance: UcInstance,
                  outage: str) -> tuple[AggregateParams, float]:
    """Aggregate constants of the units left online when ``outage`` trips
    at the contingency hour, at the constant fleet damping the schedule
    assumed: the first-stage u at that hour less ``outage``; and the size
    of the disturbance (``ScenarioTree.outage_size``)."""
    tree = instance.tree
    if outage not in tree.outage_size:
        raise StudyError(f"unit {outage} has no outage branch, so no "
                         f"disturbance")
    t = tree.contingency_hour
    w = frequency_weights(instance.units, instance.fleet)
    online = (sol.u[:, t] > 0) & (np.array(tree.unit_ids) != outage)
    agg = aggregate_params(instance.units, online, instance.fleet,
                           instance.t_turbine, d_override=w.d)
    return agg, tree.outage_size[outage]


def posthoc_gaps(sol: UcSolution, instance: UcInstance,
                 outage: str) -> LimitGaps:
    """Re-evaluate the frequency metrics after ``outage`` on the realized
    commitment."""
    agg, dp = _after_outage(sol, instance, outage)
    return check_limits(frequency_metrics(agg, dp, instance.limits),
                        instance.limits)


def frequency_trace(sol: UcSolution, instance: UcInstance, outage: str,
                    horizon_s: float = 20.0
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Frequency deviation over ``horizon_s`` seconds after ``outage``."""
    agg, dp = _after_outage(sol, instance, outage)
    return simulate_step_response(agg, dp, horizon_s=horizon_s,
                                  f_base=instance.limits.f_base)


# ---------------------------------------------------------------------------
# reporting

def report(result_off: StudyResult, result_on: StudyResult,
           out_dir: str | Path) -> None:
    """Comparison CSVs plus a manifest, deterministic for fixed inputs."""
    import scipy

    cfg = result_on.config
    day_idx = cfg.contingency_day - 1
    d_off, d_on = result_off.days[day_idx], result_on.days[day_idx]
    tree = d_off.instance.tree
    if cfg.contingency_local_hour - 1 != tree.contingency_hour:
        raise StudyError(
            "template contingency hour does not match the study config")
    outages = result_on.template.contingency.credible_outages
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    u_off, u_on = result_off.solution_u(), result_on.solution_u()
    n_hours = u_off.shape[1]

    with open(out / "commitments.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["hour", "committed_off", "committed_on"])
        for t in range(n_hours):
            wr.writerow([t + 1, int(u_off[:, t].sum()),
                         int(u_on[:, t].sum())])

    system = result_on.template.system
    w = frequency_weights(system.units, system.fleet)
    # synchronous inertia per hour in the no-contingency branch
    m_off, m_on = w.m_w @ u_off, w.m_w @ u_on
    with open(out / "inertia.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["hour", "m_sync_off_pu_s", "m_sync_on_pu_s",
                     "m_virtual_pu_s"])
        for t in range(n_hours):
            wr.writerow([t + 1, f"{m_off[t]:.6f}", f"{m_on[t]:.6f}",
                         f"{w.m_v:.6f}"])

    with open(out / "gaps.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["outage", "hour", "eta_nadir_off", "eta_rocof_off",
                     "eta_ss_off", "eta_nadir_on", "eta_rocof_on",
                     "eta_ss_on"])
        for uid in tree.unit_ids:
            if uid not in outages:
                continue
            gaps = [posthoc_gaps(d.solution, d.instance, uid)
                    for d in (d_off, d_on)]
            wr.writerow([uid, cfg.contingency_hour]
                        + [f"{v:.6f}" for g in gaps
                           for v in (g.nadir, g.rocof, g.ss)])

    with open(out / "costs.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["day", "component", "cost_off", "cost_on",
                     "pct_diff"])
        parts = ["total", "startup", "operation", "reserves", "shed"]
        sums = {p: [0.0, 0.0] for p in parts}
        for day_off, day_on in zip(result_off.days, result_on.days):
            for part in parts:
                a = day_off.solution.cost_breakdown[part]
                b = day_on.solution.cost_breakdown[part]
                sums[part][0] += a
                sums[part][1] += b
                pct = 100.0 * (b - a) / a if abs(a) > 1e-12 else float("nan")
                wr.writerow([day_off.day, part, f"{a:.2f}", f"{b:.2f}",
                             f"{pct:.2f}"])
        for part in parts:
            a, b = sums[part]
            pct = 100.0 * (b - a) / a if abs(a) > 1e-12 else float("nan")
            wr.writerow(["all", part, f"{a:.2f}", f"{b:.2f}", f"{pct:.2f}"])

    uid = max(tree.outage_size, key=tree.outage_size.get)
    ts, df_off = frequency_trace(d_off.solution, d_off.instance, uid)
    _, df_on = frequency_trace(d_on.solution, d_on.instance, uid)
    with open(out / f"trace_h{cfg.contingency_hour}.csv", "w",
              newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t_s", "delta_f_off_hz", "delta_f_on_hz"])
        step = max(1, len(ts) // 2000)
        for i in range(0, len(ts), step):
            wr.writerow([f"{ts[i]:.3f}", f"{df_off[i]:.6f}",
                         f"{df_on[i]:.6f}"])

    manifest = {
        "config": {k: v for k, v in asdict(cfg).items() if k != "out_dir"},
        "seed": cfg.seed,
        "solver": "highs",
        "versions": {"gridfreq": __version__,
                     "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "days": [{"day": d.day, "freq_mode": d.freq_mode,
                  "status": d.solution.status,
                  "mip_gap": d.solution.mip_gap,
                  "objective": d.solution.objective}
                 for run in (result_off, result_on) for d in run.days],
        "trace_outage": uid,
    }
    with open(out / "study_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
