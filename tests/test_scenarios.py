import numpy as np
import pytest

from gridfreq.scenarios import (ContingencyModel, ScenarioError,
                                WindScenario, build_tree,
                                contingency_probabilities, ingest_wind)

from conftest import make_unit


def four_units():
    return [make_unit(uid=f"g{i}", p_max=100.0) for i in range(1, 5)]


def flat_wind(n_scen=2, horizon=4, mw=30.0):
    return [WindScenario(id=f"w{i}", probability=1.0 / n_scen,
                        realization={"f1": [mw] * horizon})
            for i in range(n_scen)]


class TestProbabilities:
    def test_reference_values(self):
        model = ContingencyModel(credible_outages=["a", "b", "c", "d"],
                                 contingency_hour=0, lam=1e-3, tau=1.0)
        pi_c0, pi_ck = contingency_probabilities(model)
        assert pi_c0 == pytest.approx(0.9960079893439916, rel=1e-12)
        for v in pi_ck.values():
            assert v == pytest.approx(0.0009965061593815465, rel=1e-12)
        total = pi_c0 + sum(pi_ck.values())
        assert total == pytest.approx(0.9999940139815178, rel=1e-12)
        assert total < 1.0

    def test_single_outage(self):
        model = ContingencyModel(credible_outages=["a"],
                                 contingency_hour=0, lam=1e-3)
        pi_c0, pi_ck = contingency_probabilities(model)
        assert pi_c0 == pytest.approx(np.exp(-1e-3))
        assert pi_ck["a"] == pytest.approx(np.exp(-1e-3)
                                           * (np.exp(1e-3) - 1.0))

    def test_invalid_rate(self):
        model = ContingencyModel(credible_outages=["a"],
                                 contingency_hour=0, lam=0.0)
        with pytest.raises(ScenarioError):
            contingency_probabilities(model)


class TestBuildTree:
    def test_counts_and_ordering(self):
        units = four_units()
        model = ContingencyModel(credible_outages=["g2", "g3"],
                                 contingency_hour=1, lam=1e-3)
        tree = build_tree(flat_wind(3), model, units, 400.0, horizon=4)
        assert len(tree.scenarios) == (2 + 1) * 3
        # no-contingency branch comes first
        assert all(s.outage_unit is None for s in tree.scenarios[:3])
        assert 0.999 <= sum(s.probability for s in tree.scenarios) <= 1.0

    def test_availability_and_outage_size(self):
        units = four_units()
        model = ContingencyModel(credible_outages=["g2"],
                                 contingency_hour=2, lam=1e-3)
        tree = build_tree(flat_wind(1), model, units, 400.0, horizon=4)
        s = next(i for i, sc in enumerate(tree.scenarios)
                 if sc.outage_unit == "g2")
        i2 = tree.unit_ids.index("g2")
        assert list(tree.availability[s, i2]) == [1, 1, 0, 0]
        assert np.all(tree.availability[s, :i2] == 1)
        assert tree.outage_size == {"g2": 100.0 / 400.0}
        s0 = 0
        assert np.all(tree.availability[s0] == 1)

    def test_joint_probabilities_multiply(self):
        units = four_units()
        model = ContingencyModel(credible_outages=["g1"],
                                 contingency_hour=0, lam=1e-3)
        wind = [WindScenario("a", 0.7, {"f1": [0.0] * 4}),
                WindScenario("b", 0.3, {"f1": [0.0] * 4})]
        tree = build_tree(wind, model, units, 400.0, horizon=4)
        pi_c0, pi_ck = contingency_probabilities(model)
        probs = {(s.outage_unit, s.wind_id): s.probability
                 for s in tree.scenarios}
        assert probs[(None, "a")] == pytest.approx(0.7 * pi_c0)
        assert probs[("g1", "b")] == pytest.approx(0.3 * pi_ck["g1"])

    def test_outage_branches(self):
        # outage units in credible_outages order (not unit order); each
        # outage scenario loses its own unit from the contingency hour on
        # and nothing else; no outage units without outages
        model = ContingencyModel(credible_outages=["g3", "g1"],
                                 contingency_hour=1, lam=1e-3)
        tree = build_tree(flat_wind(3), model, four_units(), 400.0, 4)
        assert list(tree.outage_size) == ["g3", "g1"]
        assert ([sc.outage_unit for sc in tree.scenarios]
                == [None] * 3 + ["g3"] * 3 + ["g1"] * 3)
        for s, sc in enumerate(tree.scenarios):
            expected = np.ones((4, 4), dtype=np.int8)
            if sc.outage_unit is not None:
                expected[tree.unit_ids.index(sc.outage_unit), 1:] = 0
            assert np.array_equal(tree.availability[s], expected)
        model.credible_outages = []
        tree = build_tree(flat_wind(3), model, four_units(), 400.0, 4)
        assert tree.outage_size == {}

    def test_unknown_outage_unit(self):
        model = ContingencyModel(credible_outages=["nope"],
                                 contingency_hour=0, lam=1e-3)
        with pytest.raises(ScenarioError, match="nope"):
            build_tree(flat_wind(1), model, four_units(), 400.0, 4)

    def test_contingency_hour_outside_horizon(self):
        model = ContingencyModel(credible_outages=["g1"],
                                 contingency_hour=4, lam=1e-3)
        with pytest.raises(ScenarioError):
            build_tree(flat_wind(1), model, four_units(), 400.0, 4)

    def test_duplicate_outages_rejected(self):
        model = ContingencyModel(credible_outages=["g1", "g1"],
                                 contingency_hour=0, lam=1e-3)
        with pytest.raises(ScenarioError):
            build_tree(flat_wind(1), model, four_units(), 400.0, 4)

    def test_empty_wind_rejected(self):
        model = ContingencyModel(credible_outages=["g1"],
                                 contingency_hour=0, lam=1e-3)
        with pytest.raises(ScenarioError):
            build_tree([], model, four_units(), 400.0, 4)


class TestIngestWind:
    def write(self, tmp_path, text):
        path = tmp_path / "wind.csv"
        path.write_text(text)
        return path

    def test_roundtrip(self, tmp_path):
        path = self.write(tmp_path, "\n".join(
            ["scenario,farm,hour,mw",
             "s2,f1,1,10.5", "s2,f1,2,11.0",
             "s1,f1,1,20.0", "s1,f1,2,21.0", ""]))
        scens = ingest_wind(path)
        assert [s.id for s in scens] == ["s1", "s2"]
        assert all(s.probability == pytest.approx(0.5) for s in scens)
        assert scens[0].realization["f1"] == [20.0, 21.0]
        assert scens[1].realization["f1"] == [10.5, 11.0]

    def test_missing_column(self, tmp_path):
        path = self.write(tmp_path, "scenario,farm,mw\ns1,f1,1\n")
        with pytest.raises(ScenarioError, match="header"):
            ingest_wind(path)

    def test_negative_power_with_location(self, tmp_path):
        path = self.write(tmp_path,
                          "scenario,farm,hour,mw\ns1,f1,1,-5.0\n")
        with pytest.raises(ScenarioError, match=":2:"):
            ingest_wind(path)

    def test_ragged_hours(self, tmp_path):
        path = self.write(tmp_path, "\n".join(
            ["scenario,farm,hour,mw",
             "s1,f1,1,1.0", "s1,f1,2,1.0",
             "s2,f1,1,1.0", ""]))
        with pytest.raises(ScenarioError, match="ragged"):
            ingest_wind(path)

    def test_gap_in_hours(self, tmp_path):
        path = self.write(tmp_path, "\n".join(
            ["scenario,farm,hour,mw",
             "s1,f1,1,1.0", "s1,f1,3,1.0", ""]))
        with pytest.raises(ScenarioError, match="gaps"):
            ingest_wind(path)

    def test_bad_number(self, tmp_path):
        path = self.write(tmp_path,
                          "scenario,farm,hour,mw\ns1,f1,one,1.0\n")
        with pytest.raises(ScenarioError, match=":2:"):
            ingest_wind(path)

    def test_mismatched_farms(self, tmp_path):
        path = self.write(tmp_path, "\n".join(
            ["scenario,farm,hour,mw",
             "s1,f1,1,1.0", "s2,f2,1,1.0", ""]))
        with pytest.raises(ScenarioError, match="farms"):
            ingest_wind(path)
