import json

import numpy as np
import pytest

from gridfreq.freq_dynamics import aggregate_params, fleet_damping, \
    frequency_metrics
from gridfreq.nadir_linearization import (LinearizationError, NadirBounds,
                                          admitted,
                                          enumerate_commitments,
                                          extract_bounds, fit_max_affine,
                                          fit_pwl, make_nadir_fn, nadir_grid)
from gridfreq.system import ConverterFleet, FrequencyLimits

from conftest import make_unit, synthetic_fleet


def small_fleet():
    # three survivors after losing the small peaker
    return [
        make_unit(uid="big", p_max=400.0, inertia_h=6.5, droop=0.015),
        make_unit(uid="mid", p_max=250.0, inertia_h=5.0, droop=0.02,
                  turbine_fraction=0.25),
        make_unit(uid="low", p_max=150.0, inertia_h=4.0, droop=0.03,
                  turbine_fraction=0.3),
        make_unit(uid="out", p_max=60.0, inertia_h=5.0, droop=0.03),
    ]


@pytest.fixture
def fleet_conv():
    return ConverterFleet(vsm_capacity=100.0, droop_capacity=50.0)


class TestEnumeration:
    def test_cloud_shape_and_mask_order(self, fleet_conv, limits):
        cloud = enumerate_commitments(small_fleet(), "out", fleet_conv,
                                      limits, 7.0)
        assert len(cloud) == 2 ** 3
        assert cloud.survivor_ids == ["big", "mid", "low"]
        assert cloud.delta_p == pytest.approx(60.0 / 1010.0)
        # bit j of the index toggles survivor j
        assert cloud.m[0] == 0.0
        full = cloud.m[-1]
        for j in range(3):
            assert cloud.m[1 << j] < full

    def test_values_match_scalar_pipeline(self, fleet_conv, limits):
        units = small_fleet()
        cloud = enumerate_commitments(units, "out", fleet_conv, limits, 7.0)
        d_const = fleet_damping(units, fleet_conv,
                                sum(u.p_max for u in units) + 150.0)
        for mask in (0b001, 0b011, 0b111):
            online = [bool(mask >> j & 1) for j in range(3)] + [False]
            agg = aggregate_params(units, online, fleet_conv, 7.0,
                                   d_override=d_const)
            assert cloud.m[mask] == pytest.approx(agg.m, rel=1e-12)
            assert cloud.r_g[mask] == pytest.approx(agg.r_g, rel=1e-12)
            assert cloud.f_g[mask] == pytest.approx(agg.f_g, rel=1e-12)
            met = frequency_metrics(agg, cloud.delta_p, limits)
            assert cloud.nadir_hz[mask] == pytest.approx(met.nadir_hz,
                                                         rel=1e-9)

    def test_all_offline_marked_unsafe(self, fleet_conv, limits):
        cloud = enumerate_commitments(small_fleet(), "out", fleet_conv,
                                      limits, 7.0)
        assert not cloud.safe[0]

    def test_point_view_roundtrip(self, fleet_conv, limits):
        cloud = enumerate_commitments(small_fleet(), "out", fleet_conv,
                                      limits, 7.0)
        assert cloud.mask_of({"big", "low"}) == 0b101

    def test_unknown_outage(self, fleet_conv, limits):
        with pytest.raises(LinearizationError):
            enumerate_commitments(small_fleet(), "zz", fleet_conv, limits,
                                  7.0)

    def test_enumeration_guard(self, fleet_conv, limits):
        units = synthetic_fleet(26)
        with pytest.raises(LinearizationError, match="guard"):
            enumerate_commitments(units, "u1", fleet_conv, limits, 7.0)


class TestBoundExtraction:
    def test_no_unsafe_admitted_and_some_safe(self, fleet_conv, limits):
        cloud = enumerate_commitments(small_fleet(), "out", fleet_conv,
                                      limits, 7.0)
        assert cloud.safe.any() and (~cloud.safe).any()
        bounds = extract_bounds(cloud, limits)
        box = admitted(cloud, bounds)
        assert not np.any(box & ~cloud.safe)
        assert np.any(box & cloud.safe)

    def test_binned_path_also_safe(self, limits):
        units = synthetic_fleet(15, seed=3)
        fleet = ConverterFleet(vsm_capacity=120.0, droop_capacity=60.0)
        cloud = enumerate_commitments(units, "u1", fleet, limits, 7.0)
        assert len(cloud) == 2 ** 14 > 2 ** 12
        bounds = extract_bounds(cloud, limits)
        box = admitted(cloud, bounds)
        assert not np.any(box & ~cloud.safe)
        assert np.any(box & cloud.safe)

    # computed before the binned search was vectorized; both clouds take
    # the binned path (more than 2**12 points)
    @pytest.mark.parametrize("n_units, seed, expected", [
        (15, 3, ("0x1.3f3ffe65c6322p-5", "0x0.0p+0",
                 "0x1.2797c4ee5cba5p+3", "0x0.0p+0")),
        # criterion 5's fleet
        (20, 7, ("0x1.b2ac585c50a13p-5", "0x1.e86ccf637845dp+1",
                 "0x1.cdb3dff3f66e3p+3", "0x1.ac5e638b35968p+1")),
    ])
    def test_binned_bounds_frozen(self, limits, n_units, seed, expected):
        fleet = ConverterFleet(vsm_capacity=120.0, droop_capacity=60.0)
        cloud = enumerate_commitments(synthetic_fleet(n_units, seed=seed),
                                      "u1", fleet, limits, 7.0)
        b = extract_bounds(cloud, limits)
        assert (b.delta_p.hex(), b.f_lim.hex(), b.r_lim.hex(),
                b.m_lim.hex()) == expected

    def test_all_unsafe_raises(self, fleet_conv, limits):
        units = small_fleet()
        tight = FrequencyLimits(nadir_lim=1e-6)
        cloud = enumerate_commitments(units, "out", fleet_conv, tight, 7.0)
        with pytest.raises(LinearizationError, match="cannot meet"):
            extract_bounds(cloud, tight)

    def test_json_roundtrip(self, tmp_path):
        bounds = NadirBounds(delta_p=0.05, f_lim=1.5, r_lim=10.0,
                             m_lim=4.0)
        path = tmp_path / "b.json"
        bounds.to_json(path)
        again = NadirBounds.from_json(path)
        assert again == bounds


class TestMaxAffine:
    def test_absolute_value_exact(self):
        x = np.linspace(-1.0, 1.0, 41)
        coeffs, rmse = fit_max_affine(x, np.abs(x), 2, restarts=20, seed=0)
        assert rmse < 1e-9
        slopes = sorted(c[0] for c in coeffs)
        assert slopes[0] == pytest.approx(-1.0, abs=1e-6)
        assert slopes[1] == pytest.approx(1.0, abs=1e-6)

    def test_more_segments_never_worse_with_warm_start(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, size=(120, 2))
        y = np.maximum(x[:, 0], 0.3 * x[:, 1] ** 2)
        prev_rmse = np.inf
        prev_coeffs = None
        for k in (2, 3, 4):
            coeffs, rmse = fit_max_affine(x, y, k, restarts=30, seed=5,
                                          warm_start=prev_coeffs)
            assert rmse <= prev_rmse + 1e-12
            prev_rmse, prev_coeffs = rmse, coeffs

    def test_deterministic_given_seed(self):
        x = np.linspace(0, 1, 50)
        y = np.exp(x)
        c1, r1 = fit_max_affine(x, y, 3, restarts=10, seed=42)
        c2, r2 = fit_max_affine(x, y, 3, restarts=10, seed=42)
        assert np.array_equal(c1, c2) and r1 == r2

    def test_sparse_grid_rejected(self):
        with pytest.raises(LinearizationError, match="sparse"):
            fit_max_affine(np.linspace(0, 1, 5), np.zeros(5), 4)


class TestPwlFit:
    def test_fit_underestimates_little(self, fleet_conv, limits):
        units = small_fleet()
        cloud = enumerate_commitments(units, "out", fleet_conv, limits, 7.0)
        d_const = float(cloud.d[0])
        fn = make_nadir_fn(d_const, 7.0, cloud.delta_p, limits,
                           m_v=cloud.m_v)
        grid = nadir_grid(cloud, n_per_dim=5)
        fit = fit_pwl(fn, grid, 4, restarts=40, seed=0)
        assert fit.rmse < 0.05
        vals = fit.evaluate(grid[:, 0], grid[:, 1], grid[:, 2])
        truth = fn(grid[:, 0], grid[:, 1], grid[:, 2])
        assert np.sqrt(np.mean((vals - truth) ** 2)) == pytest.approx(
            fit.rmse, rel=1e-9)

    def test_grid_from_ranges(self):
        grid = nadir_grid([(1.0, 2.0), (0.5, 1.0), (3.0, 4.0)],
                          n_per_dim=3)
        assert grid.shape == (27, 3)
        assert grid[:, 0].min() == 1.0 and grid[:, 0].max() == 2.0

    def test_to_json(self, tmp_path, fleet_conv, limits):
        units = small_fleet()
        cloud = enumerate_commitments(units, "out", fleet_conv, limits, 7.0)
        fn = make_nadir_fn(float(cloud.d[0]), 7.0, cloud.delta_p, limits,
                           m_v=cloud.m_v)
        fit = fit_pwl(fn, nadir_grid(cloud, 5), 3, restarts=10)
        path = tmp_path / "fit.json"
        fit.to_json(path)
        payload = json.loads(path.read_text())
        assert len(payload["segments"]) == 3
        assert payload["rmse"] == fit.rmse
