import json
from types import SimpleNamespace

import numpy as np
import pytest

from gridfreq.freq_dynamics import (aggregate_params, fleet_damping,
                                    frequency_metrics)
from gridfreq.scenarios import ContingencyModel, WindScenario
from gridfreq.study import (StudyConfig, StudyError, StudyTemplate,
                            _carry_state, day_instance, frequency_trace,
                            posthoc_gaps, report, run_study)
from gridfreq.system import ConverterFleet, FrequencyLimits
from gridfreq.uc_core import InitialState, Line, Network, WindFarm, \
    build_model, solve

from conftest import make_unit


N_DAYS = 2
HOURS = 24 * N_DAYS


def small_template():
    units = [
        make_unit(uid="g1", p_max=200.0, p_min=50.0, cost_energy=20.0,
                  min_up=2, min_down=2, ramp_up=200.0, ramp_down=200.0),
        make_unit(uid="g2", bus="n2", p_max=120.0, p_min=30.0,
                  cost_energy=35.0, cost_startup=300.0,
                  inertia_h=5.5, gain_k=0.95, turbine_fraction=0.35,
                  droop=0.03),
        make_unit(uid="g3", bus="n2", p_max=30.0, p_min=10.0,
                  cost_energy=55.0, cost_startup=150.0, inertia_h=4.5,
                  gain_k=0.98, turbine_fraction=0.25, droop=0.04),
    ]
    hours = np.arange(HOURS)
    d1 = 110.0 + 40.0 * np.sin(2 * np.pi * (hours - 8) / 24)
    d2 = 70.0 + 25.0 * np.sin(2 * np.pi * (hours - 9) / 24)
    net = Network(
        nodes=["n1", "n2"],
        lines=[Line("n1", "n2", susceptance=500.0, capacity=250.0)],
        demand={"n1": list(d1), "n2": list(d2)},
        value_of_lost_load=5000.0,
        farms=[WindFarm("w1", "n2", 100.0)])
    w_hi = list(45.0 + 15.0 * np.cos(2 * np.pi * hours / 24))
    w_lo = [0.5 * v for v in w_hi]
    wind = [WindScenario("hi", 0.5, {"w1": w_hi}),
            WindScenario("lo", 0.5, {"w1": w_lo})]
    cm = ContingencyModel(credible_outages=["g3"], contingency_hour=18,
                          lam=1e-3)
    return StudyTemplate(
        network=net, units=units,
        fleet=ConverterFleet(vsm_capacity=80.0, droop_capacity=40.0),
        limits=FrequencyLimits(), wind=wind, contingency=cm,
        initial=InitialState(commitment={"g1": 1}, power={"g1": 100.0}))


def config(**kw):
    base = dict(n_days=N_DAYS, fc_start_day=2, contingency_hour=43,
                freq_mode="bounds", mip_gap=1e-6, time_limit=60.0)
    base.update(kw)
    return StudyConfig(**base)


@pytest.fixture(scope="module")
def dual():
    template = small_template()
    off = run_study(template, config(freq_mode="off"))
    on = run_study(template, config(), prefix=off)
    return template, off, on


class TestConfig:
    def test_hour_mapping(self):
        cfg = config()
        assert cfg.contingency_day == 2
        assert cfg.contingency_local_hour == 19

    def test_validation(self):
        with pytest.raises(StudyError, match="horizon"):
            config(contingency_hour=100).validate()
        with pytest.raises(StudyError, match="freq_mode"):
            config(freq_mode="soft").validate()
        with pytest.raises(StudyError, match="fc_start_day"):
            config(fc_start_day=9).validate()
        with pytest.raises(StudyError, match="before"):
            config(contingency_hour=19).validate()
        # the unconstrained run skips the frequency settings entirely
        config(freq_mode="off", fc_start_day=9).validate()

    def test_template_hour_mismatch(self):
        template = small_template()
        template.contingency.contingency_hour = 3
        with pytest.raises(StudyError, match="contingency hour"):
            run_study(template, config(freq_mode="off"))


class TestRolling:
    def test_single_day_off_matches_direct_solve(self):
        template = small_template()
        cfg = config(n_days=1, freq_mode="off", contingency_hour=19)
        res = run_study(template, cfg)
        assert len(res.days) == 1
        inst = day_instance(template, 1, "off", template.initial, None)
        direct = solve(build_model(inst), mip_gap=1e-6)
        assert res.total_cost() == pytest.approx(direct.objective, rel=1e-6)
        assert res.solution_u().shape == (3, 24)

    def test_carry_state_accumulates_across_days(self):
        units = [make_unit(uid="a", min_up=5, min_down=4)]
        run_on, run_off = {}, {}
        day1 = SimpleNamespace(u=np.array([[0, 0, 1, 1]]),
                               p=np.array([[0.0, 0.0, 60.0, 80.0]]))
        st = _carry_state(units, day1, run_on, run_off)
        assert st.commitment["a"] == 1
        assert st.power["a"] == 80.0
        assert st.min_up_left["a"] == 3       # 2 hours served out of 5
        day2 = SimpleNamespace(u=np.array([[1, 1, 1, 0]]),
                               p=np.array([[80.0, 80.0, 60.0, 0.0]]))
        st = _carry_state(units, day2, run_on, run_off)
        assert st.commitment["a"] == 0
        assert st.min_down_left["a"] == 3     # 1 hour off out of 4

    def test_prefix_reuse_and_modes(self, dual):
        template, off, on = dual
        assert [d.freq_mode for d in off.days] == ["off", "off"]
        assert [d.freq_mode for d in on.days] == ["off", "bounds"]
        assert on.days[0] is off.days[0]      # shared unconstrained day
        assert on.total_cost() >= off.total_cost() - 1e-6

    def test_prefix_must_be_unconstrained(self, dual):
        template, off, on = dual
        from gridfreq.study import StudyResult
        bad = StudyResult(config=on.config, template=template,
                          days=[on.days[1]])
        with pytest.raises(StudyError, match="unconstrained"):
            run_study(template, config(), prefix=bad)


class TestPosthoc:
    def test_quiet_hours_report_minus_one(self, dual):
        template, off, _ = dual
        d = off.days[1]
        scen = next(s for s, sc in enumerate(d.instance.tree.scenarios)
                    if sc.outage_unit == "g3")
        gaps = posthoc_gaps(d.solution, d.instance, scen)
        t_c = 18
        quiet = np.arange(24) < t_c
        assert np.all(gaps.eta_nadir[quiet] == -1.0)
        assert np.all(gaps.eta_rocof[quiet] == -1.0)
        assert gaps.eta_nadir[t_c] > -1.0
        # the no-contingency branch never has a disturbance
        base = posthoc_gaps(d.solution, d.instance, 0)
        assert np.all(base.eta_nadir == -1.0)

    def test_bounds_run_closes_gaps(self, dual):
        template, off, on = dual
        d = on.days[1]
        scen = next(s for s, sc in enumerate(d.instance.tree.scenarios)
                    if sc.outage_unit == "g3")
        gaps = posthoc_gaps(d.solution, d.instance, scen)
        t_c = 18
        assert gaps.eta_nadir[t_c] <= 0.0
        assert gaps.eta_rocof[t_c] <= 0.0
        assert gaps.eta_ss[t_c] <= 0.0

    def test_trace_requires_disturbance(self, dual):
        template, off, _ = dual
        d = off.days[1]
        with pytest.raises(StudyError, match="no disturbance"):
            frequency_trace(d.solution, d.instance, 0, 19)

    def test_trace_tail_matches_steady_state(self, dual):
        template, off, _ = dual
        d = off.days[1]
        inst = d.instance
        scen = next(s for s, sc in enumerate(inst.tree.scenarios)
                    if sc.outage_unit == "g3")
        ts, df = frequency_trace(d.solution, inst, scen, 19, horizon_s=60.0)
        t_c = 18
        online = (d.solution.u[:, t_c]
                  * inst.tree.availability[scen, :, t_c]) > 0
        d_const = fleet_damping(inst.units, inst.fleet, inst.s_base)
        agg = aggregate_params(inst.units, online, inst.fleet,
                               inst.t_turbine, d_override=d_const)
        met = frequency_metrics(agg, inst.tree.outage_size[scen, t_c],
                                inst.limits)
        assert -df[-1] == pytest.approx(met.ss_dev_hz, rel=1e-3)


class TestReport:
    def test_report_files(self, dual, tmp_path):
        template, off, on = dual
        report(off, on, tmp_path)
        for name in ("commitments.csv", "inertia.csv", "gaps.csv",
                     "costs.csv", "trace_h43.csv", "study_manifest.json"):
            assert (tmp_path / name).exists()
        lines = (tmp_path / "commitments.csv").read_text().splitlines()
        assert len(lines) == HOURS + 1
        manifest = json.loads((tmp_path / "study_manifest.json").read_text())
        assert len(manifest["days"]) == 2 * N_DAYS
        assert manifest["trace_outage"] == "g3"
        gaps = (tmp_path / "gaps.csv").read_text().splitlines()
        assert gaps[1].startswith("g3,43,")
