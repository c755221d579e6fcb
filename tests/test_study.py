import json
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from gridfreq import casedata, nadir_linearization, study, system
from gridfreq.freq_dynamics import (aggregate_params, fleet_damping,
                                    frequency_metrics)
from gridfreq.report_io import regenerate_report
from gridfreq.scenarios import ContingencyModel, WindScenario
from gridfreq.study import (StudyConfig, StudyError, StudyTemplate,
                            _carry_state, day_instance, frequency_trace,
                            posthoc_gaps, report, run_study)
from gridfreq.system import ConverterFleet, PowerSystem
from gridfreq.uc_core import InitialState, Line, Network, WindFarm, \
    build_model, dump_solution, solve

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
        network=net,
        system=PowerSystem(units=units, fleet=ConverterFleet(
            vsm_capacity=80.0, droop_capacity=40.0)),
        wind=wind, contingency=cm,
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

    @pytest.mark.parametrize("residual, shown", [(float("nan"), "nan"),
                                                 (1.0, "1.000e+00")])
    def test_residual_over_tolerance_is_refused(self, monkeypatch, residual,
                                                shown):
        def off_tolerance(built, **kwargs):
            sol = solve(built, **kwargs)
            sol.max_residual = residual
            return sol

        monkeypatch.setattr(study, "solve", off_tolerance)
        cfg = config(n_days=1, freq_mode="off", contingency_hour=19)
        with pytest.raises(StudyError, match=re.escape(
                f"day 1 (off) residual {shown} exceeds tolerance 1.500e-04")):
            run_study(small_template(), cfg)

    def test_carry_state_accumulates_across_days(self):
        units = [make_unit(uid="a", min_up=5, min_down=4)]
        day1 = SimpleNamespace(solution=SimpleNamespace(
            u=np.array([[0, 0, 1, 1]]),
            p=np.array([[0.0, 0.0, 60.0, 80.0]])))
        st = _carry_state(units, [day1])
        assert st.commitment["a"] == 1
        assert st.power["a"] == 80.0
        assert st.min_up_left["a"] == 3       # 2 hours served out of 5
        day2 = SimpleNamespace(solution=SimpleNamespace(
            u=np.array([[1, 1, 1, 0]]),
            p=np.array([[80.0, 80.0, 60.0, 0.0]])))
        st = _carry_state(units, [day1, day2])
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


class TestCloudMembership:
    def test_check_never_enumerates(self, dual, monkeypatch):
        d = dual[2].days[1]

        def refuse(*args):
            raise AssertionError("cloud check enumerated a whole cloud")

        monkeypatch.setattr(study, "enumerate_commitments", refuse)
        monkeypatch.setattr(nadir_linearization, "enumerate_commitments",
                            refuse)
        assert any(sc.outage_unit == "g3"
                   for sc in d.instance.tree.scenarios)
        study._assert_cloud_membership(d.instance, d.solution)

    def test_one_cloud_point_per_outage_unit(self, dual, monkeypatch):
        # the day has two wind paths, so two g3 scenarios, and one point
        d = dual[2].days[1]
        tree = d.instance.tree
        assert [sc.outage_unit for sc in tree.scenarios].count("g3") == 2
        calls = []
        point = study.cloud_point
        monkeypatch.setattr(study, "cloud_point", lambda units, uid, *a: (
            calls.append(uid) or point(units, uid, *a)))
        study._assert_cloud_membership(d.instance, d.solution)
        assert calls == list(tree.outage_branches) == ["g3"]

    def test_aggregate_off_the_cloud_is_refused(self, dual, monkeypatch):
        d = dual[2].days[1]
        point = study.cloud_point

        def shifted(*args):
            m, r_g, f_g = point(*args)
            return m + 1e-6, r_g, f_g

        monkeypatch.setattr(study, "cloud_point", shifted)
        with pytest.raises(StudyError, match="realized aggregate for "
                           "outage g3 not in the enumerated commitment set"):
            study._assert_cloud_membership(d.instance, d.solution)


class TestPosthoc:
    def test_unit_without_outage_branch_is_refused(self, dual):
        template, off, _ = dual
        d = off.days[1]
        with pytest.raises(StudyError, match="g1 has no outage branch"):
            posthoc_gaps(d.solution, d.instance, "g1")

    def test_bounds_run_closes_gaps(self, dual):
        template, off, on = dual
        d = on.days[1]
        gaps = posthoc_gaps(d.solution, d.instance, "g3")
        assert gaps.nadir <= 0.0
        assert gaps.rocof <= 0.0
        assert gaps.ss <= 0.0

    def test_trace_requires_disturbance(self, dual):
        template, off, _ = dual
        d = off.days[1]
        with pytest.raises(StudyError, match="no disturbance"):
            frequency_trace(d.solution, d.instance, "g2")

    def test_trace_tail_matches_steady_state(self, dual):
        template, off, _ = dual
        d = off.days[1]
        inst = d.instance
        scen = next(s for s, sc in enumerate(inst.tree.scenarios)
                    if sc.outage_unit == "g3")
        ts, df = frequency_trace(d.solution, inst, "g3", horizon_s=60.0)
        t_c = 18
        online = (d.solution.u[:, t_c]
                  * inst.tree.availability[scen, :, t_c]) > 0
        d_const = fleet_damping(inst.units, inst.fleet,
                                system.s_base(inst.units, inst.fleet))
        agg = aggregate_params(inst.units, online, inst.fleet,
                               inst.t_turbine, d_override=d_const)
        dp = 30.0 / system.s_base(inst.units, inst.fleet)   # g3's p_max
        met = frequency_metrics(agg, dp, inst.limits)
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
        for day in manifest["days"]:
            assert day["status"] == "optimal"
            assert day["mip_gap"] <= on.config.mip_gap
        gaps = (tmp_path / "gaps.csv").read_text().splitlines()
        assert gaps[1].startswith("g3,43,")

    def test_manifest_does_not_name_the_output(self, dual, tmp_path):
        """One study reported from runs written to two directories gives
        byte-identical manifests."""
        template, off, on = dual
        manifests = []
        for where in (tmp_path / "a", tmp_path / "b"):
            run = replace(on, config=replace(
                on.config, out_dir=str(where / "solutions_on")))
            report(off, run, where)
            manifests.append((where / "study_manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert "out_dir" not in json.loads(manifests[0])["config"]


def persist(off, on, where):
    """The layout ``run_study`` and ``report`` leave behind, with only the
    files ``regenerate_report`` reads kept of each day's dump."""
    for sub, run in (("solutions_off", off), ("solutions_on", on)):
        for d in run.days:
            day_dir = where / sub / f"day{d.day}"
            dump_solution(d.solution, d.instance, day_dir)
            for name in ("dispatch.csv", "reserves.csv", "flows.csv"):
                (day_dir / name).unlink()
    report(off, on, where)


class TestRegenerate:
    @pytest.fixture(autouse=True)
    def small_case(self, monkeypatch):
        monkeypatch.setattr(casedata, "study_template",
                            lambda n_days: small_template())

    def test_commitments_and_costs_suffice(self, dual, tmp_path):
        template, off, on = dual
        persist(off, on, tmp_path)
        regenerate_report(tmp_path, tmp_path / "regenerated")
        for name in ("commitments.csv", "inertia.csv", "gaps.csv",
                     "costs.csv", "trace_h43.csv"):
            assert ((tmp_path / "regenerated" / name).read_bytes()
                    == (tmp_path / name).read_bytes())

    @pytest.mark.parametrize("hour, error", [
        (44, "template contingency hour"), (60, "outside the study horizon")])
    def test_manifest_hour_is_checked(self, dual, tmp_path, hour, error):
        template, off, on = dual
        persist(off, on, tmp_path)
        path = tmp_path / "study_manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["contingency_hour"] = hour
        path.write_text(json.dumps(manifest))
        with pytest.raises(StudyError, match=error):
            regenerate_report(tmp_path, tmp_path / "regenerated")
