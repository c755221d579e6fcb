import functools
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gridfreq
from gridfreq import solver, system, uc_core
from gridfreq.casedata import study_template
from gridfreq.freq_dynamics import fleet_damping, frequency_weights
from gridfreq.nadir_linearization import (NadirBounds, PwlFit, admitted,
                                          enumerate_commitments,
                                          extract_bounds, fit_pwl,
                                          make_nadir_fn, nadir_grid)
from gridfreq.scenarios import ContingencyModel, WindScenario, build_tree
from gridfreq.solver import HighsBackend
from gridfreq.study import _after_outage, day_instance, prepare_surrogates
from gridfreq.system import ConverterFleet, FrequencyLimits
from gridfreq.uc_core import (InitialState, Line, Network, UcInstance,
                              UcModelError, WindFarm, _commitment_patterns,
                              brute_force_uc, build_model,
                              dump_solution, load_instance, residual_ok,
                              residual_scale, residual_tol, solve)

from conftest import make_unit, synthetic_fleet

needs_highs = pytest.mark.skipif(
    solver._highs is None, reason="scipy without its bundled HiGHS binding")


def two_bus_network(horizon=4, demand1=(120, 140, 150, 130),
                    demand2=(60, 70, 80, 60), cap=150.0):
    return Network(
        nodes=["n1", "n2"],
        lines=[Line("n1", "n2", susceptance=500.0, capacity=cap)],
        demand={"n1": list(demand1)[:horizon],
                "n2": list(demand2)[:horizon]},
        value_of_lost_load=5000.0,
        farms=[WindFarm("w1", "n2", 100.0)])


def two_units():
    return [
        make_unit(uid="g1", p_max=200.0, p_min=50.0, cost_energy=20.0,
                  ramp_up=120.0, ramp_down=120.0, min_up=2, min_down=2,
                  res_up_cap=60.0, res_down_cap=60.0),
        make_unit(uid="g2", bus="n2", p_max=120.0, p_min=30.0,
                  cost_energy=35.0, cost_startup=300.0, cost_shutdown=80.0,
                  cost_res_up=6.0, cost_res_down=3.0, res_up_cap=50.0,
                  res_down_cap=50.0, ramp_up=100.0, ramp_down=100.0,
                  inertia_h=5.5, gain_k=0.95, turbine_fraction=0.35,
                  droop=0.03),
    ]


def small_instance(horizon=4, freq_mode="off", wind=None,
                   contingency=True, initial=None, units=None,
                   fleet=None, outage="g2", **kwargs):
    units = units or two_units()
    fleet = fleet or ConverterFleet(vsm_capacity=80.0, droop_capacity=40.0)
    net = two_bus_network(horizon)
    if wind is None:
        wind = [WindScenario("s1", 0.5, {"w1": [40, 60, 50, 30][:horizon]}),
                WindScenario("s2", 0.5, {"w1": [20, 10, 15, 25][:horizon]})]
    outages = [outage] if contingency else []
    cm = ContingencyModel(credible_outages=outages,
                          contingency_hour=min(1, horizon - 1), lam=1e-3)
    s_base = sum(u.p_max for u in units) + 120.0
    tree = build_tree(wind, cm, units, s_base, horizon)
    if initial is None:
        initial = InitialState(commitment={"g1": 1}, power={"g1": 100.0})
    return UcInstance(network=net, units=units, fleet=fleet, tree=tree,
                      limits=FrequencyLimits(), horizon=horizon,
                      freq_mode=freq_mode, initial=initial, **kwargs)


def test_matches_brute_force():
    inst = small_instance()
    sol = solve(build_model(inst), mip_gap=1e-9)
    ref = brute_force_uc(inst)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(ref.objective, rel=1e-9)
    assert np.array_equal(sol.u, ref.u)


def test_residuals_small():
    inst = small_instance()
    sol = solve(build_model(inst), mip_gap=1e-9)
    assert sol.max_residual <= 1e-6 * residual_scale(inst)


def test_residual_ok_refuses_nan_and_excess():
    inst = small_instance()
    tol = residual_tol(inst)
    assert tol == 1e-6 * residual_scale(inst)
    for residual, ok in [(0.0, True), (tol, True), (2 * tol, False),
                         (float("nan"), False)]:
        assert residual_ok(SimpleNamespace(max_residual=residual),
                           inst) is ok


def test_cost_breakdown_sums():
    inst = small_instance()
    sol = solve(build_model(inst), mip_gap=1e-9)
    parts = sol.cost_breakdown
    total = (parts["startup"] + parts["operation"] + parts["reserves"]
             + parts["shed"])
    assert parts["total"] == pytest.approx(total, rel=1e-12)
    assert sol.objective == pytest.approx(total, rel=1e-6)


def test_no_startups_zero_startup_cost():
    # already-on unit covering flat demand, nothing switches
    units = [make_unit(uid="g1", p_max=400.0, p_min=50.0)]
    net = Network(nodes=["n1"], lines=[],
                  demand={"n1": [200.0] * 3}, value_of_lost_load=5000.0,
                  farms=[])
    cm = ContingencyModel(credible_outages=[], contingency_hour=0,
                          lam=1e-3)
    wind = [WindScenario("s1", 1.0, {})]
    tree = build_tree(wind, cm, units, 400.0, 3)
    inst = UcInstance(network=net, units=units,
                      fleet=ConverterFleet(0.0, 0.0), tree=tree,
                      limits=FrequencyLimits(), horizon=3,
                      initial=InitialState(commitment={"g1": 1},
                                           power={"g1": 200.0}))
    # empty-farm scenarios need matching farm sets
    sol = solve(build_model(inst), mip_gap=1e-9)
    assert sol.cost_breakdown["startup"] == 0.0
    assert np.all(sol.u == 1)


def test_single_scenario_no_reserve_need():
    # one wind path, no outage, reserves priced above energy: the
    # day-ahead schedule covers everything and no redispatch is booked
    units = two_units()
    for u in units:
        u.cost_res_down = 0.0
        u.cost_res_up = 200.0
    wind = [WindScenario("s1", 1.0, {"w1": [40.0, 60.0, 50.0, 30.0]})]
    inst = small_instance(wind=wind, contingency=False, units=units)
    sol = solve(build_model(inst), mip_gap=1e-9)
    assert sol.r_up.sum() == pytest.approx(0.0, abs=1e-9)
    assert sol.r_dn.sum() == pytest.approx(0.0, abs=1e-9)


def test_cost_scaling_invariance():
    inst = small_instance()
    sol1 = solve(build_model(inst), mip_gap=1e-9)
    units2 = two_units()
    for u in units2:
        for name in ("cost_energy", "cost_startup", "cost_shutdown",
                     "cost_res_up", "cost_res_down"):
            setattr(u, name, 2.0 * getattr(u, name))
    inst2 = small_instance(units=units2)
    inst2.network.value_of_lost_load *= 2.0
    sol2 = solve(build_model(inst2), mip_gap=1e-9)
    assert sol2.objective == pytest.approx(2.0 * sol1.objective, rel=1e-6)
    assert np.array_equal(sol1.u, sol2.u)


def test_spill_shed_within_caps():
    inst = small_instance()
    sol = solve(build_model(inst), mip_gap=1e-9)
    tree = inst.tree
    for s, scen in enumerate(tree.scenarios):
        for j, farm in enumerate(inst.network.farms):
            assert np.all(sol.spill[j, s, :]
                          <= np.array(scen.realization[farm.id]) + 1e-9)
    for n, node in enumerate(inst.network.nodes):
        dem = np.array(inst.network.demand[node])
        assert np.all(sol.shed[n, :, :] <= dem[None, :] + 1e-9)


def test_min_up_down_enforced():
    # expensive demand spike makes switching attractive; min times forbid it
    units = [make_unit(uid="g1", p_max=300.0, p_min=100.0, min_up=3,
                       min_down=3, cost_energy=10.0),
             make_unit(uid="g2", bus="n2", p_max=200.0, p_min=20.0,
                       cost_energy=50.0)]
    inst = small_instance(units=units)
    sol = solve(build_model(inst), mip_gap=1e-9)
    for i, unit in enumerate(units):
        series = sol.u[i]
        # any up-run inside the day respects min_up, down-runs min_down
        runs = []
        val, length = series[0], 1
        for v in series[1:]:
            if v == val:
                length += 1
            else:
                runs.append((val, length, False))
                val, length = v, 1
        runs.append((val, length, True))       # final run may be cut short
        for v, length, at_edge in runs[1:-1]:
            if v:
                assert length >= unit.min_up
            else:
                assert length >= unit.min_down


def test_initial_min_up_residual_fixes_commitment():
    initial = InitialState(commitment={"g1": 1, "g2": 1},
                           power={"g1": 100.0, "g2": 50.0},
                           min_up_left={"g2": 3})
    inst = small_instance(initial=initial)
    sol = solve(build_model(inst), mip_gap=1e-9)
    assert np.all(sol.u[1, :3] == 1)


def test_freq_mode_monotone_cost():
    units = two_units() + [
        make_unit(uid="g3", bus="n2", p_max=30.0, p_min=10.0,
                  cost_energy=55.0, cost_startup=150.0, inertia_h=4.5,
                  gain_k=0.98, turbine_fraction=0.25, droop=0.04)]
    fleet = ConverterFleet(vsm_capacity=80.0, droop_capacity=40.0)
    limits = FrequencyLimits()
    net = two_bus_network(2, demand1=(120, 140), demand2=(60, 70),
                          cap=250.0)
    wind = [WindScenario("s1", 1.0, {"w1": [40.0, 60.0]})]
    cm = ContingencyModel(credible_outages=["g3"], contingency_hour=1,
                          lam=1e-3)
    s_base = sum(u.p_max for u in units) + 120.0
    tree = build_tree(wind, cm, units, s_base, 2)
    initial = InitialState(commitment={"g1": 1}, power={"g1": 100.0})

    def mk(mode, **kw):
        return UcInstance(network=net, units=units, fleet=fleet, tree=tree,
                          limits=limits, horizon=2, freq_mode=mode,
                          initial=initial, **kw)

    cloud = enumerate_commitments(units, "g3", fleet, limits, 7.0)
    bounds = {"g3": extract_bounds(cloud, limits)}
    d_const = fleet_damping(units, fleet, s_base)
    fn = make_nadir_fn(d_const, 7.0, cloud.delta_p, limits, m_v=cloud.m_v)
    fits = {"g3": fit_pwl(fn, nadir_grid(cloud, 6), 4, restarts=50)}

    sol_off = solve(build_model(mk("off")), mip_gap=1e-9)
    sol_b = solve(build_model(mk("bounds", surrogates=bounds)),
                  mip_gap=1e-9)
    sol_p = solve(build_model(mk("pwl", surrogates=fits)), mip_gap=1e-9)
    assert sol_off.objective <= sol_b.objective + 1e-6
    assert sol_off.objective <= sol_p.objective + 1e-6

    # bounds mode keeps the aggregates after the outage in its box
    agg, _ = _after_outage(sol_b, mk("bounds", surrogates=bounds), "g3")
    b = bounds["g3"]
    assert agg.f_g >= b.f_lim - 1e-7
    assert agg.r_g >= b.r_lim - 1e-7
    assert agg.m >= b.m_lim - 1e-7

    # brute force agrees in constrained mode too
    ref = brute_force_uc(mk("bounds", surrogates=bounds))
    assert sol_b.objective == pytest.approx(ref.objective, rel=1e-9)


@pytest.mark.parametrize("rocof_lim", [1.0, 0.5])
def test_bounds_rows_admit_only_the_box(rocof_lim):
    """The commitments the bounds rows admit are those inside the nadir
    box that also meet RoCoF and the quasi steady state, per cloud point.
    The box bounds synchronous inertia; at a loose RoCoF limit m_lim is
    the binding bound on M, at a tight one the RoCoF bound is."""
    units = synthetic_fleet(12, seed=1)
    fleet = ConverterFleet(vsm_capacity=120.0, droop_capacity=60.0)
    limits = FrequencyLimits(rocof_lim=rocof_lim)
    cloud = enumerate_commitments(units, "u1", fleet, limits, 7.0)
    bounds = extract_bounds(cloud, limits)
    cm = ContingencyModel(credible_outages=["u1"], contingency_hour=0,
                          lam=1e-3)
    tree = build_tree([WindScenario("s1", 1.0, {})], cm, units,
                      system.s_base(units, fleet), 1)
    net = Network(nodes=["n1"], lines=[], demand={"n1": [500.0]},
                  value_of_lost_load=5000.0, farms=[])
    inst = UcInstance(network=net, units=units, fleet=fleet, tree=tree,
                      limits=limits, horizon=1, freq_mode="bounds",
                      surrogates={"u1": bounds})
    _, vals, passes = _commitment_patterns(build_model(inst))
    # the cloud point of each pattern: bit j is survivor j (u2..u12)
    point = vals[:, 1:12].astype(int) @ (1 << np.arange(11))
    f_b, dp = limits.f_base, cloud.delta_p
    meets = (admitted(cloud, bounds)
             & ((cloud.m + cloud.m_v) * limits.rocof_lim / f_b >= dp)
             & ((cloud.d + cloud.r_g) * limits.ss_lim / f_b >= dp))[point]
    assert passes.any()
    assert np.array_equal(passes, meets)
    assert cloud.safe[point[passes]].all()


def test_bounds_screen_meets_the_conditions_per_scenario():
    """On all 4,096 u patterns of edge_bounds, which has two outages with
    different boxes and two wind paths, the bounds-mode screen is the
    off-mode screen and, in every outage scenario at the contingency hour,
    RoCoF, the quasi steady state and the box, each computed here per
    scenario from the surrogates and the limits."""
    inst = edge_instance("bounds")
    tree, lim = inst.tree, inst.limits
    fw = frequency_weights(inst.units, inst.fleet)
    _, vals, passes = _commitment_patterns(build_model(inst))
    off = _commitment_patterns(build_model(edge_instance("off")))[2]
    t = tree.contingency_hour
    u_t = vals[:, :12].reshape(-1, 3, 4)[:, :, t]
    meets = np.ones(len(vals), dtype=bool)
    for s, scen in enumerate(tree.scenarios):
        if scen.outage_unit is None:
            continue
        online = u_t * tree.availability[s, :, t]
        m_sys, r_sys, f_sys = online @ fw.m_w, online @ fw.r_w, online @ fw.f_w
        dp = tree.outage_size[scen.outage_unit]
        box = inst.surrogates[scen.outage_unit]
        meets &= ((lim.rocof_lim / lim.f_base * (m_sys + fw.m_v) >= dp)
                  & (lim.ss_lim / lim.f_base * (fw.d + r_sys) >= dp)
                  & (m_sys >= box.m_lim) & (r_sys >= box.r_lim)
                  & (f_sys >= box.f_lim))
    assert len(vals) == 4096 and 0 < passes.sum() < off.sum()
    assert np.array_equal(passes, off & meets)


@pytest.mark.parametrize("n_wind", [1, 2, 3])
def test_frequency_rows_do_not_grow_with_wind_paths(n_wind):
    """The frequency rows read only u at the contingency hour, so each
    outage unit gets one row set whatever the number of wind paths."""
    wind = [WindScenario(f"s{k}", 1.0 / n_wind,
                         {"w1": [40.0 - 10 * k, 60.0, 50.0, 30.0 + 5 * k]})
            for k in range(n_wind)]
    off = build_model(small_instance(wind=wind)).model
    bounds = build_model(small_instance(
        wind=wind, freq_mode="bounds",
        surrogates={"g2": NadirBounds(0.1, 0.5, 20.0, 1.0)})).model
    pwl = build_model(small_instance(
        wind=wind, freq_mode="pwl",
        surrogates=small_pwl_instance().surrogates)).model
    # one outage unit, g2
    assert bounds.n_rows - off.n_rows == 3
    assert bounds.n_vars == off.n_vars
    assert pwl.n_vars - off.n_vars == 1


def test_zero_size_outage_gets_no_frequency_rows():
    # losing a unit of no capacity is no disturbance
    units = two_units()
    units[1].p_max = units[1].p_min = 0.0
    box = {"g2": NadirBounds(0.0, 0.5, 20.0, 1.0)}
    assert (build_model(small_instance(units=units)).model.n_rows
            == build_model(small_instance(units=units, freq_mode="bounds",
                                          surrogates=box)).model.n_rows)


def test_aggregates_match_definitions():
    """After each credible outage, the aggregates are the weight
    definitions summed over the units committed at the contingency hour
    less the lost one."""
    for inst in (small_instance(), edge_instance("off")):
        sol = solve(build_model(inst), mip_gap=1e-9)
        s_base = system.s_base(inst.units, inst.fleet)
        t = inst.tree.contingency_hour
        for uid in inst.tree.outage_branches:
            agg, _ = _after_outage(sol, inst, uid)
            on = [u for i, u in enumerate(inst.units)
                  if sol.u[i, t] and u.id != uid]
            assert on
            k = [u.p_max * u.gain_k / s_base for u in on]
            assert agg.r_g == pytest.approx(
                sum(ki / u.droop for ki, u in zip(k, on)))
            assert agg.f_g == pytest.approx(
                sum(u.turbine_fraction * ki / u.droop
                    for ki, u in zip(k, on)))
            assert agg.m == pytest.approx(
                sum(2.0 * u.inertia_h * ki for ki, u in zip(k, on)))


def test_validation_errors():
    inst = small_instance()
    inst.freq_mode = "nope"
    with pytest.raises(UcModelError):
        build_model(inst)
    inst2 = small_instance(freq_mode="bounds")
    with pytest.raises(UcModelError, match="missing nadir surrogates"):
        build_model(inst2)
    inst3 = small_instance()
    inst3.horizon = 3
    with pytest.raises(UcModelError):
        build_model(inst3)
    net = two_bus_network()
    net.lines[0].node_to = "zz"
    with pytest.raises(UcModelError, match="unknown node"):
        net.validate(4)
    inst4 = small_instance()
    del inst4.network.demand["n2"]
    with pytest.raises(UcModelError, match="no demand series for node 'n2'"):
        build_model(inst4)
    inst5 = small_instance(wind=[WindScenario("s1", 1.0, {"w1": [40, 60]})])
    with pytest.raises(UcModelError, match="wind series of w1 in scenario "
                       "c0/s1 shorter than horizon 4"):
        build_model(inst5)


def small_bounds_instance():
    # three hours of three units, secured against losing the smallest
    units = two_units() + [
        make_unit(uid="g3", bus="n2", p_max=30.0, p_min=10.0,
                  cost_energy=55.0, cost_startup=150.0, inertia_h=4.5,
                  gain_k=0.98, turbine_fraction=0.25, droop=0.04)]
    fleet, limits = ConverterFleet(80.0, 40.0), FrequencyLimits()
    cloud = enumerate_commitments(units, "g3", fleet, limits, 7.0)
    return small_instance(horizon=3, freq_mode="bounds", units=units,
                          fleet=fleet, outage="g3",
                          surrogates={"g3": extract_bounds(cloud, limits)})


def oracle_shaped_instance():
    """Three units by four hours, shaped like the benchmark's oracle
    instance: 4,096 patterns, 1,152 of them passing the screen."""
    units = [make_unit(uid=f"g{i + 1}", bus=bus, p_max=p_max,
                       p_min=0.25 * p_max, cost_energy=cost,
                       res_up_cap=0.3 * p_max, res_down_cap=0.3 * p_max,
                       ramp_up=0.6 * p_max, ramp_down=0.6 * p_max,
                       min_up=up, min_down=down, inertia_h=5.5, gain_k=1.0,
                       turbine_fraction=0.25, droop=0.03)
             for i, (bus, p_max, up, down, cost) in enumerate(
                 [("n1", 160.0, 1, 2, 30.0), ("n2", 120.0, 1, 1, 45.0),
                  ("n2", 80.0, 2, 2, 25.0)])]
    total = np.array([165.0, 180.0, 195.0, 175.0])
    inst = small_instance(units=units, outage="g3",
                          initial=InitialState(commitment={"g1": 1},
                                               power={"g1": 80.0}))
    inst.network = replace(two_bus_network(), demand={
        "n1": list(2.0 / 3.0 * total), "n2": list(total / 3.0)},
        lines=[Line("n1", "n2", susceptance=500.0, capacity=120.0)])
    return inst


def lp_patterns(make):
    """The LP brute_force_uc solves for ``make()``, and its patterns."""
    built = build_model(make())
    m = built.model
    m.is_int = [False] * m.n_vars
    cols, vals, passes = _commitment_patterns(built)
    return built, cols, vals, passes


@pytest.mark.parametrize("make", [small_instance, small_bounds_instance])
def test_brute_force_screen_is_sound(make):
    inst = make()
    built = build_model(inst)
    cols, vals, passes = _commitment_patterns(built)
    assert passes.any() and not passes.all()
    for v in vals[~passes]:
        assert HighsBackend().solve(built.model.fixed(cols, v),
                                    mip_gap=1e-9).status == "infeasible"

    class Counting(HighsBackend):
        # solve_fixed runs on brute_force_uc's worker threads
        lps = 0
        lock = threading.Lock()

        def solve_fixed(self, model, cols, vals, time_limit):
            for res in super().solve_fixed(model, cols, vals, time_limit):
                with self.lock:
                    self.lps += 1
                yield res

    backend = Counting()
    brute_force_uc(inst, backend=backend)
    assert backend.lps == np.count_nonzero(passes)


def _fingerprint(sol):
    return (sol.status, sol.objective.hex(), sol.u.tolist(),
            sol.max_residual.hex())


@pytest.mark.parametrize("make", [small_instance, small_bounds_instance,
                                  oracle_shaped_instance])
def test_brute_force_pool_matches_one_worker(make, monkeypatch):
    # the same answer, bit for bit, for this machine and 1, 2 or 3 CPUs
    pooled = _fingerprint(brute_force_uc(make()))
    for n_cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n_cpus)))
        assert pooled == _fingerprint(brute_force_uc(make()))


@pytest.mark.parametrize("make", [small_instance, small_bounds_instance,
                                  oracle_shaped_instance])
def test_brute_force_workers_fix_own_patterns(make, monkeypatch):
    # more workers than cores, each yielding between its LPs: a worker
    # that fixed another's pattern would make some pattern reach HiGHS
    # twice and another not at all, or a solution miss its own pattern
    class Recording(HighsBackend):
        def __init__(self, u_cols):
            self.u_cols, self.seen = u_cols, []
            self.lock = threading.Lock()

        def solve_fixed(self, model, cols, vals, time_limit):
            n = len(self.u_cols)
            for v, res in zip(vals, super().solve_fixed(model, cols, vals,
                                                        time_limit)):
                time.sleep(1e-4)
                assert not res.has_solution \
                    or np.array_equal(res.x[self.u_cols], v[:n])
                with self.lock:
                    self.seen.append(v[:n].tobytes())
                yield res

    inst = make()
    built = build_model(inst)
    n = built.vars.u.size
    _, vals, passes = _commitment_patterns(built)
    passing = sorted(v[:n].tobytes() for v in vals[passes])
    backend = Recording(built.vars.u.ravel())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(5)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        brute_force_uc(inst, backend=backend)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(backend.seen) == passing


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
def test_brute_force_tie_keeps_first_pattern(n_cpus, monkeypatch):
    class Tied(HighsBackend):
        def solve_fixed(self, model, cols, vals, time_limit):
            for res in super().solve_fixed(model, cols, vals, time_limit):
                if res.status == "optimal":
                    res = replace(res, objective=1.0)
                yield res

    built, cols, vals, passes = lp_patterns(small_instance)
    first = next(v[:built.vars.u.size] for v in vals[passes]
                 if HighsBackend().solve(built.model.fixed(cols, v),
                                         mip_gap=1e-9).status == "optimal")
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(n_cpus)))
    sol = brute_force_uc(small_instance(), backend=Tied())
    assert sol.objective == 1.0
    assert np.array_equal(sol.u.ravel(), first)


def test_brute_force_without_solve_fixed():
    """A backend with only ``solve`` gets one cold solve per passing
    pattern, and the same answer."""
    class SolveOnly:
        name = "solve-only"
        calls = 0
        lock = threading.Lock()

        def solve(self, model, mip_gap=1e-4, time_limit=600.0):
            with self.lock:
                self.calls += 1
            return HighsBackend().solve(model, mip_gap=mip_gap,
                                        time_limit=time_limit)

    _, _, _, passes = lp_patterns(small_bounds_instance)
    backend = SolveOnly()
    sol = brute_force_uc(small_bounds_instance(), backend=backend)
    assert backend.calls == np.count_nonzero(passes)
    ref = brute_force_uc(small_bounds_instance())
    assert np.array_equal(sol.u, ref.u)
    assert sol.objective == pytest.approx(ref.objective, rel=1e-9)


def test_brute_force_timeout_is_not_infeasible():
    """An LP stopped by its time limit makes the answer ``timeout``, even
    when every other pattern solved: the lost LP here is the optimum."""
    best = brute_force_uc(small_instance()).u.ravel()
    n = best.size

    class SlowOnBest(HighsBackend):
        def solve_fixed(self, model, cols, vals, time_limit):
            for v, res in zip(vals, super().solve_fixed(model, cols, vals,
                                                        time_limit)):
                if np.array_equal(v[:n], best):
                    res = solver.SolveResult("timeout", None, None, None)
                yield res

    sol = brute_force_uc(small_instance(), backend=SlowOnBest())
    assert sol.status == "timeout" and sol.objective is None


@needs_highs
@pytest.mark.parametrize("make", [small_instance, small_bounds_instance,
                                  oracle_shaped_instance])
def test_solve_fixed_matches_cold_solves(make):
    """One warm-started series over every passing pattern gives each
    pattern's cold-solve status, and its objective within 1e-9."""
    built, cols, vals, passes = lp_patterns(make)
    m, backend = built.model, HighsBackend()
    series = list(backend.solve_fixed(m, cols, vals[passes], 60.0))
    assert len(series) == np.count_nonzero(passes)
    for v, warm in zip(vals[passes], series):
        cold = backend.solve(m.fixed(cols, v), mip_gap=1e-9)
        assert warm.status == cold.status
        if cold.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9)


def count_runs(monkeypatch):
    """A list that grows by one entry per HiGHS run."""
    runs = []
    run = solver._run
    monkeypatch.setattr(solver, "_run",
                        lambda h, is_mip: runs.append(1) or run(h, is_mip))
    return runs


@needs_highs
def test_solve_fixed_time_limit_is_per_lp(monkeypatch):
    """HiGHS counts its time limit over every run of one instance; each
    LP of a series gets the whole limit, so a series far longer than the
    limit, of LPs far shorter, solves every pattern. The series holds only
    patterns that solve, so no certificate skips one and each reaches
    HiGHS."""
    built, cols, vals, passes = lp_patterns(oracle_shaped_instance)
    backend = HighsBackend()
    feasible = np.array([v for v, res in zip(
        vals[passes], backend.solve_fixed(built.model, cols, vals[passes],
                                          60.0))
        if res.status == "optimal"])
    runs = count_runs(monkeypatch)
    limit = 0.05
    began = time.perf_counter()
    series = list(backend.solve_fixed(
        built.model, cols, np.tile(feasible, (4, 1)), limit))
    assert time.perf_counter() - began > 4 * limit
    assert len(runs) == len(series) == 4 * len(feasible)
    assert all(res.status == "optimal" for res in series)


@needs_highs
def test_brute_force_skips_proven_infeasible_lps(monkeypatch):
    """Most patterns that pass the screen are infeasible; an infeasible
    LP's certificate spares later ones of its chunk their HiGHS run."""
    _, _, _, passes = lp_patterns(oracle_shaped_instance)
    runs = count_runs(monkeypatch)
    sol = brute_force_uc(oracle_shaped_instance())
    assert sol.status == "optimal"
    assert len(runs) < np.count_nonzero(passes)


def test_brute_force_milp_fallback(monkeypatch):
    direct = brute_force_uc(small_instance())
    monkeypatch.setattr(solver, "_highs", None)
    fallback = brute_force_uc(small_instance())
    assert np.array_equal(fallback.u, direct.u)
    assert fallback.objective == pytest.approx(direct.objective, rel=1e-9)


def study_day_bounds_instance(n_wind=None):
    """Day 1 of the shipped study in bounds mode; ``n_wind`` keeps only
    that many wind scenarios, equally likely."""
    template = study_template(1)
    if n_wind is not None:
        template = replace(template, wind=[
            replace(w, probability=1.0 / n_wind)
            for w in template.wind[:n_wind]])
    grid = template.system
    surrogates = prepare_surrogates(
        grid.units, grid.fleet, grid.limits, grid.t_turbine,
        template.contingency.credible_outages, "bounds")
    return day_instance(template, 1, "bounds", template.initial, surrogates)


def highs_input_digest(m):
    """sha256 of the arrays HighsBackend.solve hands to HiGHS."""
    asm = m.assembly()
    a = asm.csr.copy()
    a.sum_duplicates()
    a.sort_indices()
    h = hashlib.sha256(str(a.shape).encode())
    for arr in (m.c, np.array(m.is_int, dtype=np.int64), m.lb, m.ub, a.data,
                a.indices.astype(np.int64), a.indptr.astype(np.int64),
                asm.row_lo, asm.row_hi):
        h.update(arr.tobytes())
    return h.hexdigest()


def small_pwl_instance():
    """small_instance in pwl mode with a hand-written two-segment fit, so
    no LAPACK call feeds the model."""
    fit = PwlFit(np.array([[-0.9, -4.5, -0.05, 0.7],
                           [-0.3, -1.25, -0.02, 0.45]]), rmse=0.0)
    return small_instance(freq_mode="pwl", surrogates={"g2": fit})


def edge_instance(freq_mode):
    """Corner cases of the row builder on four hours: two parallel lines
    (one written backwards), a node with demand and no line, two farms at
    one bus, a unit with p_min 0, one with turbine_fraction 0, min_up
    past the horizon, carried min up/down obligations, and two credible
    outages whose hand-written surrogates differ in size."""
    units = [
        make_unit(uid="g1", bus="n1", p_max=150.0, p_min=0.0),
        make_unit(uid="g2", bus="n2", p_max=90.0, p_min=20.0,
                  turbine_fraction=0.0, min_down=3, cost_energy=35.0),
        make_unit(uid="g3", bus="n3", p_max=60.0, p_min=10.0, min_up=6,
                  cost_energy=45.0),
    ]
    net = Network(
        nodes=["n1", "n2", "n3"],
        lines=[Line("n1", "n2", susceptance=400.0, capacity=80.0),
               Line("n2", "n1", susceptance=250.0, capacity=60.0)],
        demand={"n1": [70.0, 90.0, 85.0, 60.0],
                "n2": [40.0, 55.0, 50.0, 35.0],
                "n3": [20.0, 25.0, 30.0, 15.0]},
        value_of_lost_load=5000.0,
        farms=[WindFarm("w1", "n2", 60.0), WindFarm("w2", "n2", 40.0)])
    wind = [WindScenario("s1", 0.6, {"w1": [30.0, 20.1, 0.0, 10.3],
                                     "w2": [12.7, 0.0, 8.9, 5.5]}),
            WindScenario("s2", 0.4, {"w1": [0.0, 35.2, 15.6, 0.0],
                                     "w2": [0.0, 3.3, 0.0, 20.4]})]
    cm = ContingencyModel(credible_outages=["g1", "g2"], contingency_hour=1,
                          lam=1e-3)
    tree = build_tree(wind, cm, units, 4000.0, 4)
    surrogates = None
    if freq_mode == "bounds":
        surrogates = {"g1": NadirBounds(0.0375, 2.0, 30.0, 3.0),
                      "g2": NadirBounds(0.0225, 1.5, 20.0, 2.0)}
    elif freq_mode == "pwl":
        surrogates = {
            "g1": PwlFit(np.array([[-0.008, -0.05, -0.02, 0.9],
                                   [-0.002, -0.01, -0.01, 0.5]]), rmse=0.0),
            "g2": PwlFit(np.array([[-0.006, -0.04, -0.03, 0.8],
                                   [-0.0025, -0.02, -0.015, 0.55],
                                   [-0.001, -0.005, -0.005, 0.3]]),
                         rmse=0.0)}
    return UcInstance(
        network=net, units=units,
        fleet=ConverterFleet(vsm_capacity=50.0, droop_capacity=30.0),
        tree=tree, limits=FrequencyLimits(), horizon=4, freq_mode=freq_mode,
        surrogates=surrogates,
        initial=InitialState(commitment={"g1": 1, "g3": 1},
                             power={"g1": 60.0, "g3": 30.0},
                             min_up_left={"g3": 2},
                             min_down_left={"g2": 1}))


# Any change to what HiGHS receives shows here.  pwl mode uses hand-written
# fits: fit_pwl goes through LAPACK lstsq, whose last bits depend on the
# BLAS build.
@pytest.mark.parametrize("make, digest", [
    (small_instance,
     "4341d80a479ee5e67e67e9667949cccb7abab4f2dc85a40c17108f355d027c51"),
    (small_bounds_instance,
     "4e7b62258be783c5d46fcdbb0a497c0c71f8ac24dabafe5bfe1aefa7ff78e6a5"),
    (study_day_bounds_instance,
     "7d9514eb44be1936e2a216b45ac32520c93aea6f08eede3f89bdbc331aa5f126"),
    (small_pwl_instance,
     "16c38ea72d2783fab9797f1e5c69f0966cd72b843904f967cff7a69ae4f96929"),
    (functools.partial(edge_instance, "off"),
     "ed76e12c5626934f26f4939abb4512990362f12d4c08f44d6a6d2705a8c4c622"),
    (functools.partial(edge_instance, "bounds"),
     "67e654e57c6c4f3bb3b7f9c415b78166113b27726ce6a4808a316a748b725e62"),
    (functools.partial(edge_instance, "pwl"),
     "3dc97040a33c71f89e5c2396e12a59015eec495fd8efcb0c62ae363b54630972"),
], ids=["small_off", "small_bounds", "study_day_bounds", "small_pwl",
        "edge_off", "edge_bounds", "edge_pwl"])
def test_model_fingerprint_frozen(make, digest):
    assert highs_input_digest(build_model(make()).model) == digest


# small_bounds has 211 rows and 788 entries without frequency rows, plus
# 3 rows for its one outage unit (g3), each reading g1 and g2. Of
# study_day_bounds' rows 12 are frequency rows, 3 for each of its 4
# outage units, whatever its 10 wind paths.
@pytest.mark.parametrize("make, counts", [
    (small_instance, (210, 188, 806, 8)),
    (small_bounds_instance, (214, 177, 794, 9)),
    (study_day_bounds_instance, (55622, 39408, 258254, 192)),
], ids=["small_off", "small_bounds", "study_day_bounds"])
def test_model_counters(make, counts):
    """The size counters the benchmark's tracer reads off a built model:
    rows, columns, stored entries and integer columns."""
    m = build_model(make()).model
    assert (m.n_rows, m.n_vars, sum(len(e) for e in m.row_entries),
            sum(m.is_int)) == counts


def model_of(make):
    return build_model(make()).model


def study_day_lp_relaxation():
    m = model_of(study_day_bounds_instance)
    m.is_int = [False] * m.n_vars
    return m


def screen_rejected_model():
    """small_bounds with u, y and z fixed to the first pattern the screen
    rejects."""
    built = build_model(small_bounds_instance())
    cols, vals, passes = _commitment_patterns(built)
    return built.model.fixed(cols, vals[~passes][0])


# (model, solve options, expected status); small_off at a 0.5 gap stops
# at a reported gap of 10%, so it shows a dropped mip_rel_gap
PARITY_CASES = {
    "small_off_gap": (lambda: model_of(small_instance), {"mip_gap": 0.5},
                      "optimal"),
    "small_bounds": (lambda: model_of(small_bounds_instance),
                     {"mip_gap": 1e-9}, "optimal"),
    "study_day_bounds_lp": (study_day_lp_relaxation, {"mip_gap": 1e-2},
                            "optimal"),
    "screen_rejected": (screen_rejected_model, {"mip_gap": 1e-9},
                        "infeasible"),
    "time_limit_0": (lambda: model_of(small_instance), {"time_limit": 0.0},
                     "timeout"),
}


@needs_highs
@pytest.mark.parametrize("case", PARITY_CASES)
def test_direct_highs_matches_milp(case, monkeypatch):
    """The direct HiGHS path and the milp fallback give the same result."""
    make, options, status = PARITY_CASES[case]
    m = make()

    def no_milp(*args, **kwargs):
        raise AssertionError("the direct path called milp")

    with monkeypatch.context() as patch:
        patch.setattr(solver, "milp", no_milp)
        direct = HighsBackend().solve(m, **options)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_highs", None)
        fallback = HighsBackend().solve(m, **options)

    assert direct.status == fallback.status == status
    assert direct.has_solution == fallback.has_solution \
        == (status == "optimal")
    if direct.has_solution:
        assert direct.objective.hex() == fallback.objective.hex()
        assert direct.x.tobytes() == fallback.x.tobytes()
    assert direct.mip_gap == fallback.mip_gap
    # HiGHS's MIP counts come only with a MIP's point
    counts = [(r.mip_dual_bound, r.mip_node_count)
              for r in (direct, fallback)]
    assert counts[0] == counts[1]
    if not (direct.has_solution and m.assembly().integrality.any()):
        assert counts[0] == (None, None)


class SpyBackend(HighsBackend):
    """Records the time limit and start of every solve."""

    def __init__(self):
        self.calls = []

    def solve(self, model, **kwargs):
        self.calls.append(kwargs)
        return super().solve(model, **kwargs)


def no_start(monkeypatch):
    monkeypatch.setattr(uc_core, "_start_point",
                        lambda *args, **kwargs: (None, None))


@needs_highs
@pytest.mark.parametrize("make", [small_instance, small_bounds_instance])
def test_start_keeps_the_optimum(make, monkeypatch):
    started = solve(build_model(make()), mip_gap=1e-9)
    assert started.start_iterations > 0
    no_start(monkeypatch)
    cold = solve(build_model(make()), mip_gap=1e-9)
    assert cold.start_iterations is None
    assert started.status == cold.status == "optimal"
    assert np.array_equal(started.u, cold.u)
    assert started.objective == cold.objective


@needs_highs
def test_start_on_a_study_day(monkeypatch):
    # one of the ten wind scenarios, with its four outage branches, keeps
    # both solves to seconds; criterion 7 solves whole days from a start
    gap = 1e-2
    started = solve(build_model(study_day_bounds_instance(1)), mip_gap=gap)
    assert started.start_iterations > 0
    no_start(monkeypatch)
    cold = solve(build_model(study_day_bounds_instance(1)), mip_gap=gap)
    assert started.status == cold.status == "optimal"
    assert started.objective == pytest.approx(cold.objective, rel=gap)


PINNED_DAY = """
import json, os, sys
os.sched_setaffinity(0, {cpus})
sys.path[:0] = {paths}
from test_uc_core import study_day_bounds_instance
from gridfreq.uc_core import build_model, solve
sol = solve(build_model(study_day_bounds_instance(1)), mip_gap=1e-2)
print(json.dumps([sol.status, sol.objective.hex(), sol.u.tolist(),
                  sol.mip_dual_bound]))
"""


@needs_highs
def test_study_day_ignores_the_cpu_count():
    """A proven study day comes back bit for bit the same in a process
    pinned to one CPU and in one that may use every CPU this one may.

    The mask is set in each child before numpy loads, so OpenBLAS sizes
    its pools from it: on a 2-CPU machine the two-CPU child gains a
    thread when numpy loads and one when scipy does, the one-CPU child
    none. HiGHS's thread count does not follow the mask. It sizes its
    default pool from ``std::thread::hardware_concurrency()``, which
    glibc takes from the online CPUs (``get_nprocs()`` gave 2 in a
    process pinned to one of 2 CPUs, glibc 2.36), and neither child
    starts a HiGHS thread during the solve. So this pins the answer to
    the CPUs the process may use, not to HiGHS's thread count, which
    only its ``threads`` option would change; gridfreq leaves it at the
    default.
    """
    paths = [str(Path(gridfreq.__file__).resolve().parents[1]),
             str(Path(__file__).resolve().parent)]
    every = sorted(os.sched_getaffinity(0))
    children = [subprocess.Popen(
        [sys.executable, "-c", PINNED_DAY.format(cpus=cpus, paths=paths)],
        stdout=subprocess.PIPE, text=True) for cpus in ({every[0]}, every)]
    one, all_cpus = [json.loads(child.communicate(timeout=300)[0])
                     for child in children]
    assert all(child.returncode == 0 for child in children)
    assert one[0] == "optimal"
    assert one == all_cpus


@pytest.mark.parametrize("make, highs, calls", [
    pytest.param(small_instance, True, 3, marks=needs_highs),
    pytest.param(lambda: small_instance(contingency=False), True, 1,
                 marks=needs_highs),
    (small_instance, False, 3),
], ids=["outages", "no_outages", "milp_fallback"])
def test_start_solves(make, highs, calls, monkeypatch):
    """The reduced MILP and the completion LP run only when there are
    outage branches, on either HiGHS path."""
    if not highs:
        monkeypatch.setattr(solver, "_highs", None)
    backend = SpyBackend()
    built = build_model(make())
    lb, ub = built.model.lb.copy(), built.model.ub.copy()
    sol = solve(built, mip_gap=1e-9, backend=backend)
    assert sol.status == "optimal"
    assert len(backend.calls) == calls
    # the completion LP fixes u on a copy
    assert np.array_equal(built.model.lb, lb)
    assert np.array_equal(built.model.ub, ub)
    assert ("start" in backend.calls[-1]) == (calls == 3)
    # milp reports HiGHS's node count but not its simplex iterations
    assert (sol.simplex_iterations is not None) == highs
    assert sol.mip_node_count is not None


@needs_highs
@pytest.mark.parametrize("make", [small_instance, small_bounds_instance])
def test_solve_does_not_write_the_model(make):
    """Every solve ``solve`` takes, the completion LP's included, sees the
    caller's model with the column bounds it had before."""
    built = build_model(make())
    lb, ub = built.model.lb.copy(), built.model.ub.copy()

    class Checking(SpyBackend):
        def solve(self, model, **kwargs):
            assert np.array_equal(built.model.lb, lb)
            assert np.array_equal(built.model.ub, ub)
            return super().solve(model, **kwargs)

    backend = Checking()
    assert solve(built, mip_gap=1e-9, backend=backend).status == "optimal"
    assert len(backend.calls) == 3


@needs_highs
def test_start_shares_the_assembly():
    """The completion LP's fixed copy and the full run get the one
    assembly of the day's model; only the reduced MILP has its own."""
    seen = []

    class Recording(HighsBackend):
        def solve(self, model, **kwargs):
            seen.append(model.assembly())
            return super().solve(model, **kwargs)

    built = build_model(small_instance())
    solve(built, mip_gap=1e-9, backend=Recording())
    reduced, completion, full = seen
    assert completion is full is built.model.assembly()
    assert reduced is not full


@pytest.mark.parametrize("time_limit", [0.0, 60.0])
def test_start_shares_the_time_limit(time_limit):
    backend = SpyBackend()
    sol = solve(build_model(small_bounds_instance()), mip_gap=1e-9,
                time_limit=time_limit, backend=backend)
    limits = [c["time_limit"] for c in backend.calls]
    assert all(0.0 <= b <= a <= time_limit
               for a, b in zip([time_limit] + limits, limits))
    assert sol.status == ("timeout" if time_limit == 0 else "optimal")


def test_infeasible_start_is_ignored():
    m = model_of(small_bounds_instance)
    cold = HighsBackend().solve(m, mip_gap=1e-9)
    bad = HighsBackend().solve(m, mip_gap=1e-9,
                               start=np.full(m.n_vars, 1e6))
    assert bad.status == cold.status == "optimal"
    assert bad.objective == cold.objective


@needs_highs
@pytest.mark.parametrize("make, mip_gap, calls", [
    (small_bounds_instance, 1e-2, 2), (small_instance, 1e-9, 3)],
    ids=["proven", "full_run"])
def test_proof_or_full_run(make, mip_gap, calls):
    """A point within the gap of the proof's bound is returned with no
    full run; otherwise the full MILP runs from it. small_bounds' point
    (8,664.9) is 0.9% above its bound, small's (11,557.2) 3.1%."""
    backend = SpyBackend()
    inst = make()
    sol = solve(build_model(inst), mip_gap=mip_gap, backend=backend)
    assert sol.status == "optimal"
    assert len(backend.calls) == calls
    assert ("start" in backend.calls[-1]) == (calls == 3)
    assert sol.max_residual <= 1e-6 * residual_scale(inst)
    assert sol.mip_gap <= mip_gap
    assert sol.mip_dual_bound <= sol.objective
    assert sol.start_iterations > 0
    if calls == 2:
        assert sol.mip_node_count == sol.simplex_iterations == 0
        assert sol.mip_gap == pytest.approx(
            (sol.objective - sol.mip_dual_bound) / sol.objective)


class WeakBound(SpyBackend):
    """Reports the first ``weak`` reduced MILPs' dual bounds 2% of their
    objective lower, a valid bound the proof misses with; records each
    solve as (kind, mip_gap, whether it had a start, iterations)."""

    def __init__(self, built, weak):
        super().__init__()
        self.built, self.weak, self.log = built, weak, []

    def solve(self, model, **kwargs):
        res = super().solve(model, **kwargs)
        kind = ("full" if model is self.built.model else "completion"
                if model.n_vars == self.built.model.n_vars else "reduced")
        if kind == "reduced" and self.weak:
            self.weak -= 1
            res = replace(res, mip_dual_bound=res.mip_dual_bound
                          - 0.02 * abs(res.objective))
        self.log.append((kind, kwargs["mip_gap"], "start" in kwargs,
                         res.simplex_iterations))
        return res


@needs_highs
@pytest.mark.parametrize("make, mip_gap, weak, kinds", [
    (small_bounds_instance, 1e-2, 1, ["reduced", "completion", "reduced"]),
    (small_bounds_instance, 1e-2, 2,
     ["reduced", "completion", "reduced", "full"]),
    (small_instance, 1e-9, 0, ["reduced", "completion", "full"])],
    ids=["retry_closes", "retry_misses", "no_retry"])
def test_missed_proof_retries_once(make, mip_gap, weak, kinds):
    """A missed proof re-solves the reduced MILP once, from its incumbent,
    at the gap the proof needs; the full MILP runs only if that misses
    too. On small_instance at 1e-9 the outage branches alone cost more
    than the gap allows, so the full MILP runs with no retry."""
    built = build_model(make())
    backend = WeakBound(built, weak)
    sol = solve(built, mip_gap=mip_gap, backend=backend)
    assert sol.status == "optimal"
    assert [k for k, *_ in backend.log] == kinds
    # only the retry runs at another gap, and it is the one reduced solve
    # that gets a start
    for k, gap, started, _ in backend.log:
        retry = k == "reduced" and gap != mip_gap
        assert started == (retry or k == "full")
        assert not retry or 0 < gap < mip_gap
    assert sol.start_iterations == sum(
        it for k, _, _, it in backend.log if k != "full")
    if kinds[-1] == "full":
        assert sol.mip_node_count is not None
        assert sol.simplex_iterations > 0
    else:
        assert sol.mip_node_count == sol.simplex_iterations == 0
        assert sol.mip_gap <= mip_gap
        assert sol.mip_dual_bound <= sol.objective


class Wrapped:
    """A backend that wraps HighsBackend.solve, as a tracer does."""

    def __init__(self):
        inner = HighsBackend().solve

        @functools.wraps(inner)
        def solve(*args, **kwargs):
            return inner(*args, **kwargs)
        self.solve = solve


@pytest.mark.parametrize("backend", [Wrapped], ids=["wrapped"])
def test_start_needs_a_start_keyword(backend, monkeypatch):
    """A solve wrapped as a tracer wraps it passes the start keyword
    through, and gets the start and the two solves that build it."""
    backend = backend()
    seen = []
    solve_of = backend.solve

    @functools.wraps(solve_of)
    def counting(*args, **kwargs):
        seen.append(kwargs)
        return solve_of(*args, **kwargs)

    monkeypatch.setattr(backend, "solve", counting)
    sol = solve(build_model(small_instance()), mip_gap=1e-9, backend=backend)
    assert sol.status == "optimal"
    assert len(seen) == 3
    assert "start" in seen[-1]


@needs_highs
@pytest.mark.parametrize("make", [
    small_bounds_instance, lambda: study_day_bounds_instance(1)],
    ids=["small_bounds", "study_day_1"])
def test_proven_day_matches_on_milp(make, monkeypatch):
    """A day proven from its no-outage part takes the same two solves on
    the direct path and the milp fallback, and comes back bit for bit the
    same."""
    results = []
    for highs in (solver._highs, None):
        monkeypatch.setattr(solver, "_highs", highs)
        backend = SpyBackend()
        results.append(solve(build_model(make()), mip_gap=1e-2,
                             backend=backend))
        assert len(backend.calls) == 2
    direct, fallback = results
    assert direct.status == fallback.status == "optimal"
    assert direct.objective.hex() == fallback.objective.hex()
    assert np.array_equal(direct.u, fallback.u)
    assert direct.mip_gap == fallback.mip_gap
    assert direct.mip_dual_bound == fallback.mip_dual_bound


class FirstModel(Exception):
    pass


class StopAtFirstSolve:
    """A backend that raises its first model as ``FirstModel``."""

    def solve(self, model, **kwargs):
        raise FirstModel(model)


# The reduced day, the first model the proof solves: the built day without
# its outage branches' recourse columns and the rows that read them.  It is
# the day built on its no-outage scenarios alone, at their full-tree
# probabilities, plus the full tree's frequency rows, and these digests
# are that model's.
@pytest.mark.parametrize("make, digest", [
    (small_instance,
     "0e65933b3738e11879e7a59229682d106b9a006fe938dd4c32f4d71c5e7f2863"),
    (small_bounds_instance,
     "693c14f0bafbb7eb4c929cb6b98f2b256d841d469b330b466471f148420ef88a"),
    (study_day_bounds_instance,
     "04df210af00595becd91ad2952363404ac38ec95d63992a61885e50cb4a02913"),
    (small_pwl_instance,
     "36e9750bfec54d2423bf17fbf4f4fc691fca6e20e490f529f029370c472f7665"),
    (functools.partial(edge_instance, "off"),
     "2b561537054c071e398277b7707251718a1abc0e3827ed38927ee028af9f7f27"),
    (functools.partial(edge_instance, "bounds"),
     "069900c9e931275521495fc4ddd1216715dd7786be2d1df89e313402cb188463"),
    (functools.partial(edge_instance, "pwl"),
     "1be32cbf57595049d28380c5afdab26e495f5ddfa837020f3f74687ff694ab58"),
], ids=["small_off", "small_bounds", "study_day_bounds", "small_pwl",
        "edge_off", "edge_bounds", "edge_pwl"])
def test_reduced_day_fingerprint_frozen(make, digest, monkeypatch):
    """The proof cuts its reduced day out of the built model and builds
    no model of its own."""
    built = build_model(make())
    full = highs_input_digest(built.model)
    built_in_solve = []
    monkeypatch.setattr(uc_core, "build_model",
                        lambda *args: built_in_solve.append(args))
    with pytest.raises(FirstModel) as first:
        solve(built, mip_gap=1e-2, backend=StopAtFirstSolve())
    assert highs_input_digest(first.value.args[0]) == digest
    assert built_in_solve == []
    assert highs_input_digest(built.model) == full


def criterion_6_instances():
    """The small instances criterion 6 solves both ways: two units over
    four hours, and three units over three hours in each frequency
    mode."""
    instances = []
    # horizon-4 two-unit base case with an outage branch
    instances.append(small_instance())
    # single wind path, no contingency
    instances.append(small_instance(
        wind=[WindScenario("s1", 1.0, {"w1": [40.0, 60.0, 50.0, 30.0]})],
        contingency=False))
    # carried-over obligations force the second unit on
    instances.append(small_instance(
        initial=InitialState(commitment={"g1": 1, "g2": 1},
                             power={"g1": 100.0, "g2": 50.0},
                             min_up_left={"g2": 3})))
    # doubled costs keep the commitment pattern, scale the objective
    units = two_units()
    for u in units:
        u.cost_energy *= 2.0
        u.cost_startup *= 2.0
    instances.append(small_instance(units=units))

    # three units over three hours in each frequency mode
    units3 = two_units() + [
        make_unit(uid="g3", bus="n2", p_max=30.0, p_min=10.0,
                  cost_energy=55.0, cost_startup=150.0, inertia_h=4.5,
                  gain_k=0.98, turbine_fraction=0.25, droop=0.04)]
    fleet = ConverterFleet(vsm_capacity=80.0, droop_capacity=40.0)
    limits = FrequencyLimits()
    cloud = enumerate_commitments(units3, "g3", fleet, limits, 7.0)
    bounds = {"g3": extract_bounds(cloud, limits)}
    s_base = sum(u.p_max for u in units3) + 120.0
    fn = make_nadir_fn(fleet_damping(units3, fleet, s_base), 7.0,
                       cloud.delta_p, limits, m_v=cloud.m_v)
    fits = {"g3": fit_pwl(fn, nadir_grid(cloud, 6), 4, restarts=50)}
    net3 = two_bus_network(3, cap=250.0)
    wind3 = [WindScenario("s1", 1.0, {"w1": [40.0, 60.0, 50.0]})]
    cm3 = ContingencyModel(credible_outages=["g3"], contingency_hour=1,
                           lam=1e-3)
    tree3 = build_tree(wind3, cm3, units3, s_base, 3)
    for mode, kw in (("bounds", {"surrogates": bounds}),
                     ("pwl", {"surrogates": fits})):
        instances.append(UcInstance(
            network=net3, units=units3, fleet=fleet, tree=tree3,
            limits=limits, horizon=3, freq_mode=mode,
            initial=InitialState(commitment={"g1": 1},
                                 power={"g1": 100.0}), **kw))
    return instances


def down_reserve_instance():
    """One wind path, with g1 paid more for down reserve than its energy
    costs: every branch books down reserve, so the outage branch's
    recourse costs less than nothing."""
    units = two_units()
    units[0].cost_res_down = 25.0
    return small_instance(units=units, wind=[
        WindScenario("s1", 1.0, {"w1": [40.0, 60.0, 50.0, 30.0]})])


@needs_highs
def test_proof_bound_is_below_brute_force():
    """The proof's bound never exceeds the optimum. On
    down_reserve_instance the no-outage day's dual bound alone is 3.3
    above it; the outage branch's recourse term (-6.1) brings it below."""
    for inst in criterion_6_instances() + [down_reserve_instance()]:
        point, _ = uc_core._start_point(build_model(inst), 1e-9,
                                        lambda: 60.0, HighsBackend())
        ref = brute_force_uc(inst)
        assert point.mip_dual_bound \
            <= ref.objective + 1e-9 * abs(ref.objective)


def test_brute_force_guard():
    inst = small_instance(horizon=4)
    inst.units = inst.units * 3        # 12 * 4 > 16 binaries
    from gridfreq.uc_core import InstanceTooLargeError
    with pytest.raises(InstanceTooLargeError):
        brute_force_uc(inst)


def test_dump_solution_files(tmp_path):
    inst = small_instance()
    sol = solve(build_model(inst), mip_gap=1e-9)
    dump_solution(sol, inst, tmp_path)
    for name in ("commitment.csv", "dispatch.csv", "reserves.csv",
                 "flows.csv", "costs.json"):
        assert (tmp_path / name).exists()
    costs = json.loads((tmp_path / "costs.json").read_text())
    assert costs["objective"] == pytest.approx(sol.objective)
    assert costs["breakdown"]["total"] == pytest.approx(sol.objective,
                                                        rel=1e-6)


def test_load_shipped_instance():
    inst = load_instance("data/study_instance.json")
    assert len(inst.tree.scenarios) == 50
    assert len(inst.units) == 8
    assert inst.horizon == 24
    assert 0.999 <= sum(s.probability for s in inst.tree.scenarios) <= 1.0
