import json

import numpy as np
import pytest

from gridfreq import cli, nadir_linearization, study
from gridfreq.cli import main
from gridfreq.nadir_linearization import NadirBounds
from gridfreq.system import (ConverterFleet, FrequencyLimits, PowerSystem,
                             save_system)
from gridfreq.uc_core import solve

from conftest import make_unit


def small_system():
    units = [
        make_unit(uid="g1", p_max=200.0, p_min=50.0, cost_energy=20.0,
                  min_up=2, min_down=2),
        make_unit(uid="g2", bus="n2", p_max=120.0, p_min=30.0,
                  cost_energy=35.0, cost_startup=300.0, inertia_h=5.5,
                  gain_k=0.95, turbine_fraction=0.35, droop=0.03),
        make_unit(uid="g3", bus="n2", p_max=30.0, p_min=10.0,
                  cost_energy=55.0, cost_startup=150.0, inertia_h=4.5,
                  gain_k=0.98, turbine_fraction=0.25, droop=0.04),
    ]
    return PowerSystem(units=units,
                       fleet=ConverterFleet(vsm_capacity=80.0,
                                            droop_capacity=40.0),
                       limits=FrequencyLimits(), t_turbine=7.0)


@pytest.fixture
def case_dir(tmp_path):
    save_system(small_system(), tmp_path / "system.json")
    rows = ["scenario,farm,hour,mw"]
    for sid, scale in (("hi", 1.0), ("lo", 0.5)):
        for h, mw in enumerate([40.0, 60.0, 50.0, 30.0], start=1):
            rows.append(f"{sid},w1,{h},{mw * scale}")
    (tmp_path / "wind.csv").write_text("\n".join(rows) + "\n")
    instance = {
        "system_file": "system.json",
        "wind_csv": "wind.csv",
        "horizon": 4,
        "network": {
            "nodes": ["n1", "n2"],
            "lines": [{"from": "n1", "to": "n2", "susceptance": 500.0,
                       "capacity": 250.0}],
            "demand": {"n1": [120.0, 140.0, 150.0, 130.0],
                       "n2": [60.0, 70.0, 80.0, 60.0]},
            "value_of_lost_load": 5000.0,
            "farms": [{"id": "w1", "bus": "n2", "capacity": 100.0}],
        },
        "contingency": {"credible_outages": ["g3"],
                        "contingency_hour": 2, "mttf": 1000.0},
    }
    (tmp_path / "instance.json").write_text(json.dumps(instance))
    return tmp_path


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert main([]) == 2
        assert main(["frobnicate"]) == 2
        assert main(["validate"]) == 2                # missing --system
        assert main(["metrics", "--system", "x.json"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_domain_errors(self, case_dir, tmp_path, capsys):
        assert main(["validate", "--system",
                     str(tmp_path / "missing.json")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", "--system", str(bad)]) == 1
        inst = json.loads((case_dir / "instance.json").read_text())
        del inst["network"]["demand"]["n2"]
        no_demand = case_dir / "no_demand.json"
        no_demand.write_text(json.dumps(inst))
        assert main(["solve", "--config", str(no_demand),
                     "--out", str(tmp_path / "x")]) == 1
        inst["network"]["demand"] = []
        list_demand = case_dir / "list_demand.json"
        list_demand.write_text(json.dumps(inst))
        assert main(["solve", "--config", str(list_demand),
                     "--out", str(tmp_path / "x")]) == 1
        del inst["network"]
        no_network = case_dir / "no_network.json"
        no_network.write_text(json.dumps(inst))
        assert main(["solve", "--config", str(no_network),
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 5
        assert "error: no demand series for node 'n2'" in err
        assert "list_demand.json: malformed instance:" in err
        assert "no_network.json: missing key 'network'" in err


class TestValidate:
    def test_ok(self, case_dir, capsys):
        assert main(["validate", "--system",
                     str(case_dir / "system.json")]) == 0
        out = capsys.readouterr().out
        assert "system ok: 3 units" in out
        assert "470.0 MVA" in out


class TestMetrics:
    def test_csv_output(self, case_dir, capsys):
        assert main(["metrics", "--system", str(case_dir / "system.json"),
                     "--delta-p", "0.05"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "nadir_hz,rocof_hz_s,ss_dev_hz"
        nadir, rocof, ss = map(float, lines[1].split(","))
        assert 0.0 < nadir < 0.5
        assert 0.0 < rocof < 0.5
        assert 0.0 < ss < nadir


class TestLinearize:
    def test_bounds_file(self, case_dir, capsys):
        out = case_dir / "bounds.json"
        assert main(["linearize", "--method", "bounds",
                     "--system", str(case_dir / "system.json"),
                     "--outage", "g3", "--out", str(out)]) == 0
        bounds = NadirBounds(**json.loads(out.read_text()))
        assert bounds.delta_p == pytest.approx(30.0 / 470.0)
        assert "wrote" in capsys.readouterr().err

    def test_pwl_file(self, case_dir, capsys):
        out = case_dir / "fit.json"
        assert main(["linearize", "--method", "pwl",
                     "--system", str(case_dir / "system.json"),
                     "--outage", "g3", "--out", str(out),
                     "--segments", "3", "--grid", "5",
                     "--restarts", "10"]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["segments"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("flag, value, error", [
        ("--segments", "0", "need at least 1 segment, got 0"),
        ("--restarts", "-1", "restarts must be >= 0, got -1"),
    ])
    def test_bad_fit_arguments(self, case_dir, capsys, flag, value, error):
        out = case_dir / "fit.json"
        assert main(["linearize", "--method", "pwl",
                     "--system", str(case_dir / "system.json"),
                     "--outage", "g3", "--out", str(out),
                     flag, value]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_unsafe_box_is_an_error(self, case_dir, capsys, monkeypatch):
        monkeypatch.setattr(nadir_linearization, "admitted",
                            lambda cloud, bounds: np.ones(len(cloud), bool))
        out = case_dir / "bounds.json"
        assert main(["linearize", "--method", "bounds",
                     "--system", str(case_dir / "system.json"),
                     "--outage", "g3", "--out", str(out)]) == 1
        assert "error: bound extraction admitted an unsafe point" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_unknown_outage(self, case_dir, capsys):
        assert main(["linearize", "--method", "bounds",
                     "--system", str(case_dir / "system.json"),
                     "--outage", "zz",
                     "--out", str(case_dir / "x.json")]) == 1
        capsys.readouterr()


class TestSolve:
    def test_off_and_bounds(self, case_dir, capsys):
        for mode in ("off", "bounds"):
            out = case_dir / f"sol_{mode}"
            assert main(["solve", "--config",
                         str(case_dir / "instance.json"),
                         "--out", str(out), "--freq-mode", mode,
                         "--mip-gap", "1e-6"]) == 0
            costs = json.loads((out / "costs.json").read_text())
            assert costs["objective"] > 0.0
            for name in ("commitment.csv", "dispatch.csv",
                         "reserves.csv", "flows.csv"):
                assert (out / name).exists()
        off = json.loads((case_dir / "sol_off/costs.json").read_text())
        on = json.loads((case_dir / "sol_bounds/costs.json").read_text())
        assert on["objective"] >= off["objective"] - 1e-6
        capsys.readouterr()

    @pytest.mark.parametrize("residual, shown", [(float("nan"), "nan"),
                                                 (1.0, "1.000e+00")])
    def test_residual_over_tolerance_is_an_error(self, case_dir, capsys,
                                                 monkeypatch, residual, shown):
        def off_tolerance(built, **kwargs):
            sol = solve(built, **kwargs)
            sol.max_residual = residual
            return sol

        monkeypatch.setattr(cli, "solve", off_tolerance)
        out = case_dir / "sol"
        assert main(["solve", "--config", str(case_dir / "instance.json"),
                     "--out", str(out), "--freq-mode", "off"]) == 1
        assert capsys.readouterr().err == (
            f"error: solution residual {shown} exceeds tolerance\n")
        assert not out.exists()

    def test_bounds_aggregate_off_the_cloud_is_an_error(
            self, case_dir, capsys, monkeypatch):
        # the bounds-mode cloud-membership check runs before the dump
        point = study.cloud_point

        def shifted(*args):
            m, r_g, f_g = point(*args)
            return m + 1e-6, r_g, f_g

        monkeypatch.setattr(study, "cloud_point", shifted)
        out = case_dir / "sol"
        assert main(["solve", "--config", str(case_dir / "instance.json"),
                     "--out", str(out), "--freq-mode", "bounds"]) == 1
        assert capsys.readouterr().err == (
            "error: realized aggregate for outage g3 not in the enumerated "
            "commitment set\n")
        assert not out.exists()

    def test_missing_instance(self, case_dir, capsys):
        assert main(["solve", "--config", str(case_dir / "nope.json"),
                     "--out", str(case_dir / "x")]) == 1
        capsys.readouterr()


class TestReport:
    def test_missing_study_dir(self, tmp_path, capsys):
        assert main(["report", "--study-dir",
                     str(tmp_path / "nothing")]) == 1
        capsys.readouterr()
