import hashlib
import json

import numpy as np
import pytest

from gridfreq.casedata import study_template
from gridfreq.freq_dynamics import fleet_damping
from gridfreq.nadir_linearization import (enumerate_commitments,
                                          extract_bounds, fit_pwl,
                                          make_nadir_fn, nadir_grid)
from gridfreq.scenarios import ContingencyModel, WindScenario, build_tree
from gridfreq.solver import HighsBackend
from gridfreq.study import day_instance, prepare_surrogates
from gridfreq.system import ConverterFleet, FrequencyLimits
from gridfreq.uc_core import (InitialState, Line, Network, UcInstance,
                              UcModelError, WindFarm, _commitment_patterns,
                              brute_force_uc, build_model, dump_solution,
                              load_instance, residual_scale, solve)

from conftest import make_unit


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

    # bounds mode satisfies its box rows exactly at the contingency cell
    s_c = next(i for i, s in enumerate(tree.scenarios)
               if s.outage_unit == "g3")
    t_c = tree.contingency_hour
    b = bounds["g3"]
    assert sol_b.f_sys[s_c, t_c] >= b.f_lim - 1e-7
    assert sol_b.r_sys[s_c, t_c] >= b.r_lim - 1e-7
    assert sol_b.m_sys[s_c, t_c] + inst_m_v(units, fleet) >= b.m_lim - 1e-7

    # brute force agrees in constrained mode too
    ref = brute_force_uc(mk("bounds", surrogates=bounds))
    assert sol_b.objective == pytest.approx(ref.objective, rel=1e-9)


def inst_m_v(units, fleet):
    s_base = sum(u.p_max for u in units) + fleet.vsm_capacity \
        + fleet.droop_capacity
    return 2.0 * fleet.vsm_inertia_h * fleet.vsm_gain \
        * fleet.vsm_capacity / s_base


def test_aggregates_match_definitions():
    inst = small_instance()
    sol = solve(build_model(inst), mip_gap=1e-9)
    s_base = inst.s_base
    units = inst.units
    alpha = inst.tree.availability
    for s in range(len(inst.tree.scenarios)):
        for t in range(inst.horizon):
            k = np.array([u.p_max * u.gain_k / s_base * sol.u[i, t]
                          * alpha[s, i, t] for i, u in enumerate(units)])
            assert np.allclose(sol.k[:, s, t], k)
            assert sol.r_sys[s, t] == pytest.approx(
                sum(k[i] / units[i].droop for i in range(len(units))))
            assert sol.f_sys[s, t] == pytest.approx(
                sum(units[i].turbine_fraction * k[i] / units[i].droop
                    for i in range(len(units))))
            assert sol.m_sys[s, t] == pytest.approx(
                sum(2.0 * units[i].inertia_h * k[i]
                    for i in range(len(units))))


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


@pytest.mark.parametrize("make", [small_instance, small_bounds_instance])
def test_brute_force_screen_is_sound(make):
    inst = make()
    built = build_model(inst)
    m = built.model
    lb, ub = np.array(m.lb), np.array(m.ub)
    passed = rejected = 0
    for cols, vals, passes in _commitment_patterns(built):
        if passes:
            passed += 1
            continue
        rejected += 1
        m.lb, m.ub = lb.copy(), ub.copy()
        m.lb[cols] = m.ub[cols] = vals
        assert HighsBackend().solve(m, mip_gap=1e-9).status == "infeasible"
    assert passed and rejected

    class Counting(HighsBackend):
        calls = 0

        def solve(self, model, **kwargs):
            self.calls += 1
            return super().solve(model, **kwargs)

    backend = Counting()
    brute_force_uc(inst, backend=backend)
    assert backend.calls == passed


def study_day_bounds_instance():
    template = study_template(1)
    surrogates = prepare_surrogates(
        template.units, template.fleet, template.limits, template.t_turbine,
        template.contingency.credible_outages, "bounds")
    return day_instance(template, 1, "bounds", template.initial, surrogates)


def highs_input_digest(m):
    """sha256 of the arrays HighsBackend.solve hands to HiGHS."""
    a = m.matrix().copy()
    a.sum_duplicates()
    a.sort_indices()
    h = hashlib.sha256(str(a.shape).encode())
    for arr in (m.c, np.array(m.is_int, dtype=np.int64), m.lb, m.ub, a.data,
                a.indices.astype(np.int64), a.indptr.astype(np.int64),
                np.array(m.row_lo), np.array(m.row_hi)):
        h.update(arr.tobytes())
    return h.hexdigest()


# Any change to what HiGHS receives shows here.  pwl mode is left out: its
# fit goes through LAPACK lstsq, whose last bits depend on the BLAS build.
@pytest.mark.parametrize("make, digest", [
    (small_instance,
     "4341d80a479ee5e67e67e9667949cccb7abab4f2dc85a40c17108f355d027c51"),
    (small_bounds_instance,
     "e17687de938442fba4784969d2947d7c836fb6def6ae87e82bd7b9b0a84b1b12"),
    (study_day_bounds_instance,
     "317815f43bbbf03092c639d02156d4a2c76ea334bfb92c09fc0a8acb13871224"),
], ids=["small_off", "small_bounds", "study_day_bounds"])
def test_model_fingerprint_frozen(make, digest):
    assert highs_input_digest(build_model(make()).model) == digest


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
    assert 0.999 <= inst.tree.total_probability <= 1.0
