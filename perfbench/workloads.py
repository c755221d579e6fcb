"""Seeded inputs, jobs and correctness gates of the benchmark workloads.

Each workload turns the run seed into a list of job inputs before timing
starts; a job is one closed-loop call into gridfreq's public functions
followed by the checks that make its result count.  gridfreq is always
reached through module attributes (``study.run_study``, ...), so the
wrappers that tracing installs on those attributes see every call.
"""

from __future__ import annotations

import contextlib
import csv
import filecmp
import functools
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from gridfreq import casedata, report_io, study, uc_core
from gridfreq import freq_dynamics as fd
from gridfreq import nadir_linearization as nl
from gridfreq.scenarios import ContingencyModel, WindScenario, build_tree
from gridfreq.system import ConverterFleet, FrequencyLimits, SynchronousUnit

# paired_study: the criterion-7 pattern on the shipped system, cut to one
# wind scenario and two days so that several jobs fit in one run.  At the
# study's default gap of 1e-2 a day whose root incumbent lands between 1%
# and 2% goes into branch-and-bound, and per-day solve time then varies
# 2-4x between seeds; at 2e-2 the days tried stopped after the root with
# an `optimal` status, so the time depends on the model, not on the seed.
STUDY_DAYS = 2
STUDY_FC_START_DAY = 2
STUDY_CONTINGENCY_HOUR = 24 + casedata.CONTINGENCY_LOCAL_HOUR
STUDY_WIND_SCENARIOS = 1
STUDY_MIP_GAP = 2e-2
STUDY_TIME_LIMIT = 90.0
STUDY_REPORTS = ["commitments.csv", "inertia.csv", "gaps.csv", "costs.csv",
                 f"trace_h{STUDY_CONTINGENCY_HOUR}.csv"]

# oracle_sweep: 3 units x 4 hours is 2^12 = 4096 fixed-commitment LPs per
# brute-force call.  Unit sizes, minimum up/down times and demand decide
# which patterns are feasible, and a feasible LP costs about 5x an
# infeasible one, so they are fixed and the seed draws costs and wind:
# every seed then does the same mix of work.
ORACLE_HOURS = 4
ORACLE_UNITS = [("n1", 160.0, 1, 2), ("n2", 120.0, 1, 1), ("n2", 80.0, 2, 2)]
ORACLE_DEMAND_MW = [165.0, 180.0, 195.0, 175.0]

# surrogate_screen: one job screens four outages of one fleet; 18 units
# leave 2^17 survivor patterns per outage.
SCREEN_UNITS = 18
SCREEN_OUTAGES = 4
SCREEN_PWL_SEGMENTS = (3, 4)
SCREEN_PWL_RESTARTS = 200
SCREEN_PWL_GRID = 6
SCREEN_RK4_CHECKS = 8
SCREEN_RK4_HORIZON_S = 60.0
T_TURBINE = 7.0

# criterion 3's closed form vs RK4 tolerances: nadir, RoCoF, steady state
RK4_TOLERANCES = (0.01, 0.005, 0.001)

# job inputs made per run; a run that needs more cycles through them
JOB_INPUTS = 8


@dataclass
class JobResult:
    attempted: int
    failed: int
    work: float                       # units of Workload.work_unit done
    quality: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def sub_seed(seed: int, job: int) -> int:
    """Independent, reproducible seed for job ``job`` of run ``seed``."""
    return int(np.random.SeedSequence([seed, job]).generate_state(1)[0])


@contextlib.contextmanager
def _study_backend(backend):
    """Route run_study's daily solves through ``backend`` when given."""
    if backend is None:
        yield
        return
    original = study.solve
    study.solve = functools.partial(original, backend=backend)
    try:
        yield
    finally:
        study.solve = original


# ---------------------------------------------------------------------------
# paired_study

@dataclass
class StudyInput:
    seed: int
    template: study.StudyTemplate


def study_input(seed: int) -> StudyInput:
    template = casedata.study_template(STUDY_DAYS, seed)
    wind = template.wind[:STUDY_WIND_SCENARIOS]
    total = sum(w.probability for w in wind)
    wind = [WindScenario(w.id, w.probability / total, w.realization)
            for w in wind]
    return StudyInput(seed, replace(template, wind=wind))


def _study_config(seed: int) -> study.StudyConfig:
    return study.StudyConfig(
        n_days=STUDY_DAYS, fc_start_day=STUDY_FC_START_DAY,
        contingency_hour=STUDY_CONTINGENCY_HOUR, freq_mode="bounds",
        mip_gap=STUDY_MIP_GAP, time_limit=STUDY_TIME_LIMIT, seed=seed)


def study_solves() -> int:
    """Daily solves in one paired study: every unconstrained day, then the
    secured days after the shared prefix."""
    return STUDY_DAYS + STUDY_DAYS - STUDY_FC_START_DAY + 1


def run_paired_study(inp: StudyInput, backend, scratch: Path) -> JobResult:
    cfg = _study_config(inp.seed)
    with _study_backend(backend):
        off = study.run_study(inp.template, replace(
            cfg, freq_mode="off", out_dir=str(scratch / "solutions_off")))
        on = study.run_study(inp.template, replace(
            cfg, out_dir=str(scratch / "solutions_on")), prefix=off)
    study.report(off, on, scratch)
    report_io.regenerate_report(scratch, scratch / "regenerated")

    # run_study itself raises on a bounds day outside the enumerated
    # cloud, so reaching this point means cloud membership held
    solved = [("off", d) for d in off.days] + [
        ("on", d) for d in on.days[STUDY_FC_START_DAY - 1:]]
    bad = []
    for run, d in solved:
        sol = d.solution
        tol = 1e-6 * uc_core.residual_scale(d.instance)
        if sol.status != "optimal":
            bad.append(f"day {d.day} ({run}) came back {sol.status}")
        elif sol.max_residual > tol:
            bad.append(f"day {d.day} ({run}) residual {sol.max_residual:.3g}"
                       f" > {tol:.3g}")
    with open(scratch / "gaps.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    gaps_off = [float(v) for row in rows for v in row[2:5]]
    gaps_on = [float(v) for row in rows for v in row[5:8]]
    if max(gaps_on) > 0.0:
        bad.append(f"secured post hoc gap {max(gaps_on):.6f} > 0")
    for name in STUDY_REPORTS:
        if not filecmp.cmp(scratch / name, scratch / "regenerated" / name,
                           shallow=False):
            bad.append(f"regenerated {name} differs")
    return JobResult(
        attempted=study_solves(), failed=min(len(bad), study_solves()),
        work=len(solved),
        quality={"total_cost_secured": on.total_cost(),
                 "total_cost_unsecured": off.total_cost(),
                 "unsecured_violations": sum(g > 0.0 for g in gaps_off)},
        errors=bad)


# ---------------------------------------------------------------------------
# oracle_sweep

def oracle_instance(seed: int) -> uc_core.UcInstance:
    """Seeded two-bus instance small enough for brute_force_uc."""
    rng = np.random.default_rng(seed)
    units = [SynchronousUnit(
        id=f"g{i + 1}", bus=bus, p_max=p_max, p_min=0.25 * p_max,
        cost_energy=float(rng.uniform(15.0, 60.0)),
        cost_startup=float(rng.uniform(100.0, 800.0)),
        cost_shutdown=float(rng.uniform(20.0, 100.0)),
        cost_res_up=float(rng.uniform(2.0, 8.0)),
        cost_res_down=float(rng.uniform(1.0, 3.0)),
        res_up_cap=0.3 * p_max, res_down_cap=0.3 * p_max,
        ramp_up=0.6 * p_max, ramp_down=0.6 * p_max,
        min_up=min_up, min_down=min_down, inertia_h=5.5, gain_k=1.0,
        turbine_fraction=0.25, droop=0.03, damping=0.6, mttf=1000.0)
        for i, (bus, p_max, min_up, min_down) in enumerate(ORACLE_UNITS)]
    fleet = ConverterFleet(vsm_capacity=80.0, droop_capacity=40.0)
    total = np.array(ORACLE_DEMAND_MW)
    net = uc_core.Network(
        nodes=["n1", "n2"],
        lines=[uc_core.Line("n1", "n2", susceptance=500.0, capacity=120.0)],
        demand={"n1": [float(v) for v in 2.0 / 3.0 * total],
                "n2": [float(v) for v in total / 3.0]},
        value_of_lost_load=5000.0,
        farms=[uc_core.WindFarm("w1", "n2", 100.0)])
    wind = [WindScenario(f"s{k + 1}", 0.5,
                         {"w1": [float(v) for v in
                                 rng.uniform(20.0, 80.0, ORACLE_HOURS)]})
            for k in range(2)]
    contingency = ContingencyModel(credible_outages=[units[-1].id],
                                   contingency_hour=1, lam=1e-3)
    s_base = (sum(u.p_max for u in units)
              + fleet.vsm_capacity + fleet.droop_capacity)
    tree = build_tree(wind, contingency, units, s_base, ORACLE_HOURS)
    initial = uc_core.InitialState(commitment={"g1": 1},
                                   power={"g1": 0.5 * units[0].p_max})
    return uc_core.UcInstance(network=net, units=units, fleet=fleet,
                              tree=tree, limits=FrequencyLimits(),
                              horizon=ORACLE_HOURS, initial=initial)


def run_oracle_sweep(inst: uc_core.UcInstance, backend,
                     scratch: Path) -> JobResult:
    sol = uc_core.solve(uc_core.build_model(inst), mip_gap=1e-9,
                        backend=backend)
    ref = uc_core.brute_force_uc(inst, backend=backend)
    bad = []
    rel = float("inf")
    if sol.status != "optimal" or ref.status != "optimal":
        bad.append(f"milp {sol.status}, brute force {ref.status}")
    else:
        rel = abs(sol.objective - ref.objective) / max(1.0,
                                                       abs(ref.objective))
        tol = 1e-6 * uc_core.residual_scale(inst)
        if rel > 1e-6:
            bad.append(f"milp {sol.objective} != brute force "
                       f"{ref.objective}")
        if sol.max_residual > tol:
            bad.append(f"residual {sol.max_residual:.3g} > {tol:.3g}")
    return JobResult(attempted=1, failed=int(bool(bad)),
                     work=2 ** (len(inst.units) * inst.horizon),
                     quality={"objective_rel_diff_max": rel}, errors=bad)


# ---------------------------------------------------------------------------
# surrogate_screen

@dataclass
class ScreenInput:
    seed: int
    units: list[SynchronousUnit]
    outages: list[str]
    check_masks: list[list[int]]      # survivor patterns checked per outage


def screen_fleet(seed: int) -> list[SynchronousUnit]:
    """Seeded mixed fleet with varied dynamic parameters."""
    rng = np.random.default_rng(seed)
    return [SynchronousUnit(
        id=f"u{i + 1}", bus="n1", p_max=float(rng.uniform(60.0, 160.0)),
        p_min=20.0, cost_energy=20.0, cost_startup=500.0,
        cost_shutdown=100.0, cost_res_up=4.0, cost_res_down=2.0,
        res_up_cap=60.0, res_down_cap=60.0, ramp_up=200.0, ramp_down=200.0,
        min_up=1, min_down=1, inertia_h=float(rng.uniform(3.5, 7.0)),
        gain_k=float(rng.uniform(0.9, 1.15)),
        turbine_fraction=float(rng.uniform(0.15, 0.35)),
        droop=float(rng.uniform(0.01, 0.05)), damping=0.6, mttf=1000.0)
        for i in range(SCREEN_UNITS)]


def screen_input(seed: int) -> ScreenInput:
    """One fleet, its screened outages and their RK4 check patterns."""
    units = screen_fleet(seed)
    rng = np.random.default_rng(seed + 1)
    picks = rng.choice(len(units), SCREEN_OUTAGES, replace=False)
    n_patterns = 1 << (SCREEN_UNITS - 1)
    return ScreenInput(seed, units, [units[k].id for k in picks],
                       [[int(v) for v in rng.integers(1, n_patterns,
                                                      SCREEN_RK4_CHECKS)]
                        for _ in picks])


SCREEN_FLEET = ConverterFleet(vsm_capacity=120.0, droop_capacity=60.0)


def _screen_outage(units, outage: str, check_masks: list[int], seed: int):
    """Surrogates and closed-form checks for one outage.

    Returns (failed checks, cloud points, worst PWL rmse, worst nadir
    relative error against RK4).
    """
    fleet, limits = SCREEN_FLEET, FrequencyLimits()
    cloud = nl.enumerate_commitments(units, outage, fleet, limits, T_TURBINE)
    bounds = nl.extract_bounds(cloud, limits)
    unsafe = int(np.count_nonzero(nl.admitted(cloud, bounds) & ~cloud.safe))

    s_base = (sum(u.p_max for u in units)
              + fleet.vsm_capacity + fleet.droop_capacity)
    d_const = fd.fleet_damping(units, fleet, s_base)
    fn = nl.make_nadir_fn(d_const, T_TURBINE, cloud.delta_p, limits,
                          m_v=cloud.m_v)
    grid = nl.nadir_grid(cloud, SCREEN_PWL_GRID)
    rmse = max(nl.fit_pwl(fn, grid, k, restarts=SCREEN_PWL_RESTARTS,
                          seed=seed).rmse
               for k in SCREEN_PWL_SEGMENTS)

    worst = [0.0, 0.0, 0.0]
    for mask in check_masks:
        on_ids = {uid for j, uid in enumerate(cloud.survivor_ids)
                  if mask >> j & 1}
        agg = fd.aggregate_params(units, [u.id in on_ids for u in units],
                                  fleet, T_TURBINE, d_override=d_const)
        met = fd.frequency_metrics(agg, cloud.delta_p, limits)
        ts, df = fd.simulate_step_response(
            agg, cloud.delta_p, horizon_s=SCREEN_RK4_HORIZON_S,
            f_base=limits.f_base)
        rocof = -(df[1] - df[0]) / (ts[1] - ts[0])
        errs = (abs(met.nadir_hz + df.min()) / -df.min(),
                abs(met.rocof_hz_s - rocof) / rocof,
                abs(met.ss_dev_hz + df[-1]) / -df[-1])
        worst = [max(w, e) for w, e in zip(worst, errs)]

    bad = []
    if unsafe:
        bad.append(f"outage {outage}: box admits {unsafe} unsafe points")
    for label, err, tol in zip(("nadir", "rocof", "ss"), worst,
                               RK4_TOLERANCES):
        if not err < tol:
            bad.append(f"outage {outage}: {label} closed form vs RK4 "
                       f"rel err {err:.3g} >= {tol}")
    return bad, len(cloud), rmse, worst[0]


def run_surrogate_screen(inp: ScreenInput, backend,
                         scratch: Path) -> JobResult:
    result = JobResult(attempted=len(inp.outages), failed=0, work=0,
                       quality={"pwl_rmse_max": 0.0,
                                "nadir_rel_err_max": 0.0})
    for outage, masks in zip(inp.outages, inp.check_masks):
        bad, points, rmse, nadir_err = _screen_outage(inp.units, outage,
                                                      masks, inp.seed)
        result.failed += bool(bad)
        result.errors += bad
        result.work += points
        result.quality["pwl_rmse_max"] = max(
            result.quality["pwl_rmse_max"], rmse)
        result.quality["nadir_rel_err_max"] = max(
            result.quality["nadir_rel_err_max"], nadir_err)
    return result


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], list]            # seed -> job inputs
    run: Callable[[Any, Any, Path], JobResult]    # input, backend, scratch
    ops_per_job: int          # operations a failed job counts as failed
    work_unit: str            # what JobResult.work counts
    rate_name: str            # workload-specific throughput metric
    rate_per_s: float         # rate_name unit per work unit per second


def _per_job(make):
    return lambda seed: [make(sub_seed(seed, j)) for j in range(JOB_INPUTS)]


WORKLOADS = {w.name: w for w in [
    Workload("paired_study", _per_job(study_input), run_paired_study,
             study_solves(), "daily solves", "days_per_min", 60.0),
    Workload("oracle_sweep", _per_job(oracle_instance), run_oracle_sweep,
             1, "LP subproblems", "subproblems_per_s", 1.0),
    Workload("surrogate_screen", _per_job(screen_input),
             run_surrogate_screen, SCREEN_OUTAGES, "cloud points",
             "cloud_points_per_s", 1.0),
]}


def run_job(workload: Workload, inp, backend, out_root: Path) -> JobResult:
    """One job in its own scratch directory under ``out_root``.

    An exception from gridfreq fails every operation of the job; the
    benchmark keeps running so the failure is counted, not fatal.
    """
    out_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as scratch:
        try:
            return workload.run(inp, backend, Path(scratch))
        except Exception as exc:  # noqa: BLE001 - job boundary, reported
            return JobResult(attempted=workload.ops_per_job,
                             failed=workload.ops_per_job, work=0.0,
                             errors=[f"{type(exc).__name__}: {exc}"])
