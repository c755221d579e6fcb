"""End-to-end acceptance checks, one per shipped capability.

Each test prints a single CRITERION line so the verdicts survive pytest
output capture.  The multi-day study runs once per session and feeds the
study and determinism checks.
"""

import filecmp
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridfreq.casedata import STUDY_SEED, study_template
from gridfreq.freq_dynamics import (AggregateParams, frequency_metrics,
                                    simulate_step_response)
from gridfreq.nadir_linearization import (admitted, enumerate_commitments,
                                          extract_bounds, fit_max_affine,
                                          fit_pwl, make_nadir_fn, nadir_grid)
from gridfreq.report_io import regenerate_report
from gridfreq.scenarios import ContingencyModel, contingency_probabilities
from gridfreq.study import StudyConfig, posthoc_gaps, report, run_study
from gridfreq.system import ConverterFleet, FrequencyLimits
from gridfreq.uc_core import (brute_force_uc, build_model, dump_solution,
                              load_instance, residual_scale, solve)

import conftest
from conftest import synthetic_fleet
from test_uc_core import criterion_6_instances, small_instance


def _verdict(n: int, ok: bool, detail: str = "") -> None:
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    conftest.CRITERION_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, line


def _read_csv(path: Path) -> list[list[str]]:
    lines = path.read_text().strip().splitlines()
    return [row.split(",") for row in lines[1:]]


@pytest.fixture(scope="session")
def study(tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    template = study_template(5)
    cfg = StudyConfig(n_days=5, fc_start_day=3, contingency_hour=67,
                      freq_mode="bounds", mip_gap=1e-2, time_limit=90.0,
                      seed=STUDY_SEED)
    t0 = time.perf_counter()
    cfg_off = replace(cfg, freq_mode="off",
                      out_dir=str(out / "solutions_off"))
    result_off = run_study(template, cfg_off)
    cfg_on = replace(cfg, out_dir=str(out / "solutions_on"))
    result_on = run_study(template, cfg_on, prefix=result_off)
    elapsed = time.perf_counter() - t0
    report(result_off, result_on, out)
    return template, result_off, result_on, out, elapsed


def test_criterion_1_contingency_probabilities():
    t0 = time.perf_counter()
    model = ContingencyModel(credible_outages=["a", "b", "c", "d"],
                             contingency_hour=0, lam=1e-3, tau=1.0)
    pi_c0, pi_ck = contingency_probabilities(model)
    elapsed = time.perf_counter() - t0
    ok = (abs(pi_c0 - 0.9960079893439916) < 1e-4
          and all(abs(v - 0.0009965061593815465) < 1e-4
                  for v in pi_ck.values())
          and abs(pi_c0 + sum(pi_ck.values()) - 0.9999940139815178) < 1e-4
          and elapsed < 1.0)
    _verdict(1, ok, f"{elapsed:.3f}s")


def test_criterion_2_scenario_tree():
    inst = load_instance("data/study_instance.json")
    tree = inst.tree
    n_wind = len({s.wind_id for s in tree.scenarios})
    n_out = len({s.outage_unit for s in tree.scenarios}) - 1
    total = sum(s.probability for s in tree.scenarios)
    ok = (len(tree.scenarios) == 50
          and n_wind == 10 and n_out == 4
          and 0.999 <= total <= 1.0)
    _verdict(2, ok, f"{len(tree.scenarios)} scenarios, sum pi {total:.6f}")


def test_criterion_3_closed_form_vs_simulation():
    rng = np.random.default_rng(20240817)
    limits = FrequencyLimits()
    t0 = time.perf_counter()
    worst = [0.0, 0.0, 0.0]
    for _ in range(100):
        r_g = rng.uniform(5.0, 30.0)
        agg = AggregateParams(
            m=rng.uniform(4.0, 15.0), m_v=rng.uniform(0.0, 3.0),
            d=rng.uniform(0.3, 1.2), r_g=r_g,
            f_g=r_g * rng.uniform(0.1, 0.4), t_turbine=7.0, s_base=100.0)
        dp = rng.uniform(0.01, 0.1)
        met = frequency_metrics(agg, dp, limits)
        ts, df = simulate_step_response(agg, dp, limits.f_base,
                                        horizon_s=200.0, dt=1e-3)
        worst[0] = max(worst[0],
                       abs(met.nadir_hz - (-df.min())) / (-df.min()))
        rocof = -(df[1] - df[0]) / (ts[1] - ts[0])
        worst[1] = max(worst[1], abs(met.rocof_hz_s - rocof) / rocof)
        worst[2] = max(worst[2], abs(met.ss_dev_hz + df[-1]) / -df[-1])
    elapsed = time.perf_counter() - t0
    ok = (worst[0] < 0.01 and worst[1] < 0.005 and worst[2] < 0.001
          and elapsed < 30.0)
    _verdict(3, ok, f"max rel err nadir {worst[0]:.2e} rocof {worst[1]:.2e} "
                    f"ss {worst[2]:.2e}, {elapsed:.1f}s")


def test_criterion_4_bound_extraction_safety():
    t0 = time.perf_counter()
    units = synthetic_fleet(12)
    fleet = ConverterFleet(vsm_capacity=120.0, droop_capacity=60.0)
    limits = FrequencyLimits()
    cloud = enumerate_commitments(units, "u1", fleet, limits, 7.0)
    bounds = extract_bounds(cloud, limits)
    elapsed = time.perf_counter() - t0
    box = admitted(cloud, bounds)
    ok = (len(cloud) == 2 ** 11
          and int((box & ~cloud.safe).sum()) == 0
          and int((box & cloud.safe).sum()) >= 1
          and elapsed < 10.0)
    _verdict(4, ok, f"{len(cloud)} points, {int(box.sum())} admitted, "
                    f"{elapsed:.2f}s")


def test_criterion_5_surrogate_runtime_ordering():
    """Wall-clock comparison of bound extraction vs 3- and 4-segment PWL
    fits on an 8-per-axis grid.

    The 500-restart budget is sized for stable near-global fits; the
    fitting objective is nonconvex and the restart count is the knob that
    buys fit quality.
    """
    units = synthetic_fleet(20)
    fleet = ConverterFleet(vsm_capacity=120.0, droop_capacity=60.0)
    limits = FrequencyLimits()
    t0 = time.perf_counter()
    cloud = enumerate_commitments(units, "u1", fleet, limits, 7.0)
    extract_bounds(cloud, limits)
    t_b = time.perf_counter() - t0

    fn = make_nadir_fn(cloud.d, 7.0, cloud.delta_p, limits, m_v=cloud.m_v)
    grid = nadir_grid(cloud, 8)
    pwl_times = []
    for k in (3, 4):
        t0 = time.perf_counter()
        fit_pwl(fn, grid, k, restarts=500, seed=0)
        pwl_times.append(time.perf_counter() - t0)
    t_3, t_4 = pwl_times
    ok = len(cloud) == 2 ** 19 and t_b < t_3 < t_4
    _verdict(5, ok, f"bounds {t_b:.2f}s < pwl-3 {t_3:.2f}s "
                    f"< pwl-4 {t_4:.2f}s")


def test_criterion_6_milp_matches_brute_force():
    t0 = time.perf_counter()
    instances = criterion_6_instances()
    assert all(len(i.units) * i.horizon <= 16 for i in instances)

    n_checked = 0
    worst_obj = 0.0
    worst_res = 0.0
    for inst in instances:
        sol = solve(build_model(inst), mip_gap=1e-9)
        ref = brute_force_uc(inst)
        assert sol.status == "optimal" and ref.status == "optimal"
        worst_obj = max(worst_obj, abs(sol.objective - ref.objective)
                        / max(1.0, abs(ref.objective)))
        worst_res = max(worst_res,
                        sol.max_residual / (1e-6 * residual_scale(inst)))
        n_checked += 1
    elapsed = time.perf_counter() - t0
    ok = (n_checked >= 5 and worst_obj <= 1e-6 and worst_res <= 1.0
          and elapsed < 60.0)
    _verdict(6, ok, f"{n_checked} instances, max rel obj diff "
                    f"{worst_obj:.2e}, {elapsed:.1f}s")


def test_criterion_7_study_pattern(study):
    template, res_off, res_on, out, elapsed = study
    cfg = res_on.config
    day_idx = cfg.contingency_day - 1

    # (a) securing frequency is not free once the limits bind
    gap_rows = _read_csv(out / "gaps.csv")
    off_gaps = [float(v) for row in gap_rows for v in row[2:5]]
    on_gaps = [float(v) for row in gap_rows for v in row[5:8]]
    violated_off = any(g > 0.0 for g in off_gaps)
    cost_ok = (res_on.total_cost() > res_off.total_cost()
               if violated_off
               else res_on.total_cost() >= res_off.total_cost() - 1e-6)

    # (b) at least as many units online at the contingency hour
    u_off = res_off.solution_u()
    u_on = res_on.solution_u()
    h = cfg.contingency_hour - 1
    commit_ok = int(u_on[:, h].sum()) >= int(u_off[:, h].sum())

    # (c) post hoc gaps closed by the constrained run for every outage
    gaps_ok = violated_off and all(g <= 0.0 for g in on_gaps)

    # recompute one outage directly to cross-check the CSV
    d_on = res_on.days[day_idx]
    direct = posthoc_gaps(d_on.solution, d_on.instance, gap_rows[0][0])
    gaps_ok &= abs(direct.nadir - float(gap_rows[0][5])) < 1e-5

    # (d) synchronous inertia steps up at the contingency hour
    inertia = _read_csv(out / "inertia.csv")
    m_on = [float(r[2]) for r in inertia]
    m_off = [float(r[1]) for r in inertia]
    inertia_ok = m_on[h] > m_on[h - 1] and m_on[h] > m_off[h]

    time_ok = elapsed < 600.0
    ok = cost_ok and commit_ok and gaps_ok and inertia_ok and time_ok
    _verdict(7, ok, f"cost off {res_off.total_cost():.0f} on "
                    f"{res_on.total_cost():.0f}, dual run {elapsed:.0f}s")


def test_criterion_8_max_affine_fitting():
    x = np.linspace(-1.0, 1.0, 201)
    coeffs, rmse = fit_max_affine(x, np.abs(x), 2, restarts=30, seed=0)
    slopes = sorted(c[0] for c in coeffs)
    exact_ok = (rmse < 1e-9 and abs(slopes[0] + 1.0) < 1e-6
                and abs(slopes[1] - 1.0) < 1e-6)

    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.0, 2.0, size=(150, 2))
    vals = np.maximum(pts[:, 0], 0.4 * pts[:, 1] ** 2) + 0.1 * pts[:, 1]
    rmses = []
    prev = None
    for restarts in (5, 20, 80):
        prev, r = fit_max_affine(pts, vals, 3, restarts=restarts, seed=11,
                                 warm_start=prev)
        rmses.append(r)
    mono_ok = all(b <= a + 1e-12 for a, b in zip(rmses, rmses[1:]))
    ok = exact_ok and mono_ok
    _verdict(8, ok, f"abs rmse {rmse:.1e}, nested rmse "
                    + ">=".join(f"{r:.4f}" for r in rmses))


def test_criterion_9_determinism(study, tmp_path):
    template, res_off, res_on, out, _ = study

    # the same small instance solved twice dumps identical artifacts
    inst = small_instance()
    d1, d2 = tmp_path / "a", tmp_path / "b"
    dump_solution(solve(build_model(inst), mip_gap=1e-9), inst, d1)
    dump_solution(solve(build_model(inst), mip_gap=1e-9), inst, d2)
    names = ["commitment.csv", "dispatch.csv", "reserves.csv",
             "flows.csv", "costs.json"]
    match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
    solve_ok = not mismatch and not errors

    # surrogate fitting with a fixed seed is bitwise reproducible
    units = synthetic_fleet(10)
    fleet = ConverterFleet(vsm_capacity=100.0, droop_capacity=50.0)
    limits = FrequencyLimits()
    outage = min(units, key=lambda u: u.p_max).id
    cloud = enumerate_commitments(units, outage, fleet, limits, 7.0)
    from gridfreq.freq_dynamics import fleet_damping
    s_base = sum(u.p_max for u in units) + 150.0
    fn = make_nadir_fn(fleet_damping(units, fleet, s_base), 7.0,
                       cloud.delta_p, limits, m_v=cloud.m_v)
    paths = []
    for tag in ("f1.json", "f2.json"):
        fit = fit_pwl(fn, nadir_grid(cloud, 5), 3, restarts=20, seed=4)
        fit.to_json(tmp_path / tag)
        paths.append(tmp_path / tag)
    extract_bounds(cloud, limits).to_json(tmp_path / "b1.json")
    extract_bounds(cloud, limits).to_json(tmp_path / "b2.json")
    surr_ok = (paths[0].read_bytes() == paths[1].read_bytes()
               and (tmp_path / "b1.json").read_bytes()
               == (tmp_path / "b2.json").read_bytes())

    # reporting twice from one study, and reporting again from the
    # persisted solutions, both reproduce the files byte for byte
    rpt1, rpt2, rpt3 = (tmp_path / f"rpt{i}" for i in (1, 2, 3))
    report(res_off, res_on, rpt1)
    report(res_off, res_on, rpt2)
    regenerate_report(out, rpt3)
    names = ["commitments.csv", "inertia.csv", "gaps.csv", "costs.csv",
             f"trace_h{res_on.config.contingency_hour}.csv",
             "study_manifest.json"]
    m1, mm1, e1 = filecmp.cmpfiles(rpt1, rpt2, names, shallow=False)
    csvs = names[:-1]
    m2, mm2, e2 = filecmp.cmpfiles(rpt1, rpt3, csvs, shallow=False)
    report_ok = not (mm1 or e1 or mm2 or e2)

    ok = solve_ok and surr_ok and report_ok
    _verdict(9, ok, "solution dumps, surrogates and reports byte-identical")
