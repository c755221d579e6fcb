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
from .freq_dynamics import (AggregateParams, aggregate_params, check_limits,
                            frequency_metrics, frequency_weights,
                            simulate_step_response)
from .nadir_linearization import (enumerate_commitments, extract_bounds,
                                  fit_pwl, make_nadir_fn, nadir_grid)
from .scenarios import ContingencyModel, WindScenario, build_tree
from .system import ConverterFleet, FrequencyLimits, SynchronousUnit, s_base
from .uc_core import (InitialState, Network, UcInstance, UcSolution,
                      build_model, dump_solution, solve)


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
class ConstraintGapSeries:
    """Per-hour relative gaps; negative means the metric is within limits."""

    hours: np.ndarray          # 1-based local hours
    eta_nadir: np.ndarray
    eta_rocof: np.ndarray
    eta_ss: np.ndarray


@dataclass
class StudyTemplate:
    """Everything constant across days of one study."""

    network: Network           # demand over the full study horizon
    units: list[SynchronousUnit]
    fleet: ConverterFleet
    limits: FrequencyLimits
    wind: list[WindScenario]   # realizations over the full horizon
    contingency: ContingencyModel   # local (within-day) outage placement
    initial: InitialState
    t_turbine: float = 7.0

    @property
    def s_base(self) -> float:
        return s_base(self.units, self.fleet)


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
            fn = make_nadir_fn(float(cloud.d[0]), t_turbine, cloud.delta_p,
                               limits, m_v=cloud.m_v)
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
    tree = build_tree(day_wind, template.contingency, template.units,
                      template.s_base, 24)
    return UcInstance(network=day_net, units=template.units,
                      fleet=template.fleet, tree=tree,
                      limits=template.limits, horizon=24,
                      t_turbine=template.t_turbine, freq_mode=freq_mode,
                      surrogates=surrogates, initial=initial)


def _carry_state(units, sol: UcSolution,
                 run_on: dict, run_off: dict) -> InitialState:
    """Initial state for the next day from a finished day's solution.

    ``run_on``/``run_off`` accumulate consecutive on/off hours per unit
    across day boundaries and are updated in place.
    """
    T = sol.u.shape[1]
    nxt = InitialState()
    for i, unit in enumerate(units):
        series = sol.u[i]
        for t in range(T):
            if series[t]:
                run_on[unit.id] = run_on.get(unit.id, 0) + 1
                run_off[unit.id] = 0
            else:
                run_off[unit.id] = run_off.get(unit.id, 0) + 1
                run_on[unit.id] = 0
        nxt.commitment[unit.id] = int(series[-1])
        nxt.power[unit.id] = float(sol.p[i, -1])
        if series[-1]:
            nxt.min_up_left[unit.id] = max(0, unit.min_up - run_on[unit.id])
        else:
            nxt.min_down_left[unit.id] = max(0, unit.min_down
                                             - run_off[unit.id])
    return nxt


def _assert_cloud_membership(instance: UcInstance, sol: UcSolution) -> None:
    """Bounds mode is conservative only over enumerated commitments.

    Verify every realized post-contingency aggregate matches its
    enumerated cloud point, so conservativeness carries over exactly.
    """
    tree = instance.tree
    for s, scen in enumerate(tree.scenarios):
        if scen.outage_unit is None:
            continue
        t = tree.contingency_hour
        cloud = enumerate_commitments(instance.units, scen.outage_unit,
                                      instance.fleet, instance.limits,
                                      instance.t_turbine)
        online = {u.id for i, u in enumerate(instance.units)
                  if sol.u[i, t] and tree.availability[s, i, t]}
        mask = cloud.mask_of(online)
        if not (abs(cloud.m[mask] - sol.m_sys[s, t]) < 1e-9
                and abs(cloud.r_g[mask] - sol.r_sys[s, t]) < 1e-9
                and abs(cloud.f_g[mask] - sol.f_sys[s, t]) < 1e-9):
            raise StudyError(
                f"realized aggregate for outage {scen.outage_unit} not in "
                f"the enumerated commitment set")


def run_study(template: StudyTemplate, config: StudyConfig,
              surrogates: dict | None = None,
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
    if surrogates is None and config.freq_mode != "off":
        surrogates = prepare_surrogates(
            template.units, template.fleet, template.limits,
            template.t_turbine, template.contingency.credible_outages,
            config.freq_mode, config.seed)

    days: list[DayResult] = []
    state = template.initial
    run_on: dict[str, int] = {}
    run_off: dict[str, int] = {}
    first_day = 1
    if prefix is not None and config.freq_mode != "off":
        n_shared = min(config.fc_start_day - 1, len(prefix.days))
        for d in prefix.days[:n_shared]:
            if d.freq_mode != "off":
                raise StudyError("prefix days must be unconstrained")
            days.append(d)
            state = _carry_state(template.units, d.solution, run_on,
                                 run_off)
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
        if mode == "bounds":
            _assert_cloud_membership(inst, sol)
        days.append(DayResult(day=day, freq_mode=mode, instance=inst,
                              solution=sol))
        state = _carry_state(template.units, sol, run_on, run_off)
    result = StudyResult(config=config, template=template, days=days)
    if config.out_dir is not None:
        persist_solutions(result, config.out_dir)
    return result


def persist_solutions(result: StudyResult, out_dir: str | Path) -> None:
    out = Path(out_dir)
    for d in result.days:
        dump_solution(d.solution, d.instance, out / f"day{d.day}")


def posthoc_gaps(sol: UcSolution, instance: UcInstance,
                 scenario: int) -> ConstraintGapSeries:
    """Re-evaluate the frequency metrics on the realized commitments.

    For hours without a disturbance in the scenario all gaps are -1 (the
    metrics are identically zero).
    """
    tree = instance.tree
    T = instance.horizon
    eta = np.full((T, 3), -1.0)
    for t in range(T):
        dp = tree.outage_size[scenario, t]
        if dp <= 0:
            continue
        agg = _realized_params(sol, instance, scenario, t)
        gaps = check_limits(frequency_metrics(agg, dp, instance.limits),
                            instance.limits)
        eta[t] = (gaps.nadir, gaps.rocof, gaps.ss)
    return ConstraintGapSeries(hours=np.arange(1, T + 1),
                               eta_nadir=eta[:, 0], eta_rocof=eta[:, 1],
                               eta_ss=eta[:, 2])


def _realized_params(sol: UcSolution, instance: UcInstance, scenario: int,
                     t: int) -> AggregateParams:
    """Aggregate constants of the units online in ``scenario`` at hour
    index ``t``, at the constant fleet damping the schedule assumed."""
    w = frequency_weights(instance.units, instance.fleet)
    online = (sol.u[:, t] * instance.tree.availability[scenario, :, t]) > 0
    return aggregate_params(instance.units, online, instance.fleet,
                            instance.t_turbine, d_override=w.d)


def frequency_trace(sol: UcSolution, instance: UcInstance, scenario: int,
                    hour: int, horizon_s: float = 20.0
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Post-contingency frequency deviation over ``horizon_s`` seconds.

    ``hour`` is the 1-based local hour; it must carry a disturbance in
    the chosen scenario.
    """
    tree = instance.tree
    t = hour - 1
    dp = tree.outage_size[scenario, t]
    if dp <= 0:
        raise StudyError(f"scenario {scenario} has no disturbance at hour "
                         f"{hour}")
    agg = _realized_params(sol, instance, scenario, t)
    return simulate_step_response(agg, dp, horizon_s=horizon_s,
                                  f_base=instance.limits.f_base)


# ---------------------------------------------------------------------------
# reporting

def _inertia_series(result: StudyResult) -> np.ndarray:
    """Synchronous inertia per hour in the no-contingency branch."""
    template = result.template
    m_w = frequency_weights(template.units, template.fleet).m_w
    return m_w @ result.solution_u()


def _largest_outage(template: StudyTemplate) -> str:
    caps = {u.id: u.p_max for u in template.units}
    return max(template.contingency.credible_outages,
               key=lambda uid: caps[uid])


def report(result_off: StudyResult, result_on: StudyResult,
           out_dir: str | Path) -> None:
    """Comparison CSVs plus a manifest, deterministic for fixed inputs."""
    import scipy

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = result_on.config
    u_off, u_on = result_off.solution_u(), result_on.solution_u()
    n_hours = u_off.shape[1]

    with open(out / "commitments.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["hour", "committed_off", "committed_on"])
        for t in range(n_hours):
            wr.writerow([t + 1, int(u_off[:, t].sum()),
                         int(u_on[:, t].sum())])

    m_off, m_on = _inertia_series(result_off), _inertia_series(result_on)
    m_v = result_on.days[0].instance.m_v
    with open(out / "inertia.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["hour", "m_sync_off_pu_s", "m_sync_on_pu_s",
                     "m_virtual_pu_s"])
        for t in range(n_hours):
            wr.writerow([t + 1, f"{m_off[t]:.6f}", f"{m_on[t]:.6f}",
                         f"{m_v:.6f}"])

    day_idx = cfg.contingency_day - 1
    with open(out / "gaps.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["outage", "hour", "eta_nadir_off", "eta_rocof_off",
                     "eta_ss_off", "eta_nadir_on", "eta_rocof_on",
                     "eta_ss_on"])
        d_off, d_on = result_off.days[day_idx], result_on.days[day_idx]
        tree = d_off.instance.tree
        for uid in d_off.instance.tree.unit_ids:
            scen = next((s for s, sc in enumerate(tree.scenarios)
                         if sc.outage_unit == uid), None)
            if scen is None:
                continue
            g_off = posthoc_gaps(d_off.solution, d_off.instance, scen)
            g_on = posthoc_gaps(d_on.solution, d_on.instance, scen)
            t = cfg.contingency_local_hour - 1
            wr.writerow([uid, cfg.contingency_hour,
                         f"{g_off.eta_nadir[t]:.6f}",
                         f"{g_off.eta_rocof[t]:.6f}",
                         f"{g_off.eta_ss[t]:.6f}",
                         f"{g_on.eta_nadir[t]:.6f}",
                         f"{g_on.eta_rocof[t]:.6f}",
                         f"{g_on.eta_ss[t]:.6f}"])

    with open(out / "costs.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["day", "component", "cost_off", "cost_on",
                     "pct_diff"])
        parts = ["total", "startup", "operation", "reserves", "shed"]
        sums = {p: [0.0, 0.0] for p in parts}
        for d_off, d_on in zip(result_off.days, result_on.days):
            for part in parts:
                a = d_off.solution.cost_breakdown[part]
                b = d_on.solution.cost_breakdown[part]
                sums[part][0] += a
                sums[part][1] += b
                pct = 100.0 * (b - a) / a if abs(a) > 1e-12 else float("nan")
                wr.writerow([d_off.day, part, f"{a:.2f}", f"{b:.2f}",
                             f"{pct:.2f}"])
        for part in parts:
            a, b = sums[part]
            pct = 100.0 * (b - a) / a if abs(a) > 1e-12 else float("nan")
            wr.writerow(["all", part, f"{a:.2f}", f"{b:.2f}", f"{pct:.2f}"])

    uid = _largest_outage(result_on.template)
    d_off = result_off.days[day_idx]
    d_on = result_on.days[day_idx]
    scen = next(s for s, sc in enumerate(d_on.instance.tree.scenarios)
                if sc.outage_unit == uid)
    ts, df_off = frequency_trace(d_off.solution, d_off.instance, scen,
                                 cfg.contingency_local_hour)
    _, df_on = frequency_trace(d_on.solution, d_on.instance, scen,
                               cfg.contingency_local_hour)
    with open(out / f"trace_h{cfg.contingency_hour}.csv", "w",
              newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t_s", "delta_f_off_hz", "delta_f_on_hz"])
        step = max(1, len(ts) // 2000)
        for i in range(0, len(ts), step):
            wr.writerow([f"{ts[i]:.3f}", f"{df_off[i]:.6f}",
                         f"{df_on[i]:.6f}"])

    manifest = {
        "config": asdict(cfg),
        "seed": cfg.seed,
        "solver": "highs",
        "versions": {"gridfreq": __version__,
                     "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "days": [{"day": d.day, "freq_mode": d.freq_mode,
                  "status": d.solution.status,
                  "objective": d.solution.objective}
                 for run in (result_off, result_on) for d in run.days],
        "trace_outage": uid,
    }
    with open(out / "study_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
