import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gridfreq
from gridfreq.casedata import study_template
from gridfreq.freq_dynamics import aggregate_params, fleet_damping, \
    frequency_metrics
import gridfreq.nadir_linearization as nl
from gridfreq.nadir_linearization import (LinearizationError, NadirBounds,
                                          admitted,
                                          enumerate_commitments,
                                          extract_bounds, fit_max_affine,
                                          fit_pwl, make_nadir_fn, nadir_grid)
from gridfreq.system import ConverterFleet, FrequencyLimits

from conftest import make_unit, synthetic_fleet


def multi_block_cloud(limits):
    """2^16 points, several enumeration blocks."""
    return enumerate_commitments(
        synthetic_fleet(17), "u1",
        ConverterFleet(vsm_capacity=120.0, droop_capacity=60.0), limits, 7.0)


def cloud_digest(cloud) -> str:
    h = hashlib.sha256()
    for a in (cloud.m, cloud.r_g, cloud.f_g, cloud.nadir_hz, cloud.safe):
        h.update(a.tobytes())
    return h.hexdigest()


def bounds_hex(b: NadirBounds) -> tuple[str, ...]:
    return b.delta_p.hex(), b.f_lim.hex(), b.r_lim.hex(), b.m_lim.hex()


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

    def test_unknown_outage(self, fleet_conv, limits):
        with pytest.raises(LinearizationError):
            enumerate_commitments(small_fleet(), "zz", fleet_conv, limits,
                                  7.0)

    def test_enumeration_guard(self, fleet_conv, limits):
        units = synthetic_fleet(26)
        with pytest.raises(LinearizationError, match="guard"):
            enumerate_commitments(units, "u1", fleet_conv, limits, 7.0)

    def test_multi_block_cloud_frozen(self, limits):
        """sha256 of the cloud's bytes and its binned bounds as float.hex,
        computed with the single-block enumeration this replaced."""
        cloud = multi_block_cloud(limits)
        assert len(cloud) == 2 ** 16 > nl._CLOUD_BLOCK
        assert cloud_digest(cloud) == (
            "389cf92763ed28d280c78f9142e17a99051fe4535a324120f9a140c4686a5b49")
        assert bounds_hex(extract_bounds(cloud, limits)) == (
            "0x1.f965ae11fde92p-5", "0x1.221edde1adcdap+2",
            "0x1.0d7abe3f6dd5ep+4", "0x1.eadfea70f47bep+1")

    @pytest.mark.parametrize("block", [1 << 8, 1 << 20])
    def test_block_size_does_not_change_bits(self, limits, monkeypatch,
                                             block):
        cloud = multi_block_cloud(limits)
        expected = (cloud_digest(cloud),
                    bounds_hex(extract_bounds(cloud, limits)))
        monkeypatch.setattr(nl, "_CLOUD_BLOCK", block)
        cloud = multi_block_cloud(limits)
        assert (cloud_digest(cloud),
                bounds_hex(extract_bounds(cloud, limits))) == expected

    @pytest.mark.parametrize("n_units", [15, 19])
    def test_memory_is_bounded_by_the_block(self, limits, n_units):
        # 2^14 and 2^18 points: the temporaries beyond the returned arrays
        # stay under one bound that does not grow with the cloud
        fleet = ConverterFleet(vsm_capacity=120.0, droop_capacity=60.0)
        units = synthetic_fleet(n_units)
        tracemalloc.start()
        try:
            cloud = enumerate_commitments(units, "u1", fleet, limits, 7.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in (cloud.m, cloud.r_g, cloud.f_g,
                                      cloud.nadir_hz, cloud.safe))
        assert len(cloud) == 2 ** (n_units - 1)
        assert peak - kept < 8 << 20


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

    @pytest.mark.parametrize("units, outage, fleet", [
        (small_fleet(), "out", ConverterFleet(100.0, 50.0)),
        (synthetic_fleet(15, seed=3), "u1", ConverterFleet(120.0, 60.0))],
        ids=["exact", "binned"])
    def test_admitting_an_unsafe_point_raises(self, limits, monkeypatch,
                                              units, outage, fleet):
        # both bound searches end in one check that holds under python -O
        cloud = enumerate_commitments(units, outage, fleet, limits, 7.0)
        monkeypatch.setattr(nl, "admitted",
                            lambda cloud, bounds: np.ones(len(cloud), bool))
        with pytest.raises(LinearizationError, match="unsafe point"):
            extract_bounds(cloud, limits)

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
        again = NadirBounds(**json.loads(path.read_text()))
        assert again == bounds


def test_exact_bounds_frozen(limits):
    """(delta_p, f_lim, r_lim, m_lim) as float.hex, computed with the
    loop-based exact search this array code replaced."""
    t = study_template(1)
    clouds = {
        "small/out": enumerate_commitments(
            small_fleet(), "out",
            ConverterFleet(vsm_capacity=100.0, droop_capacity=50.0),
            limits, 7.0),
        # criterion 4's cloud
        "c4/u1": enumerate_commitments(
            synthetic_fleet(12), "u1",
            ConverterFleet(vsm_capacity=120.0, droop_capacity=60.0),
            limits, 7.0),
        **{f"study/{uid}": enumerate_commitments(
            t.system.units, uid, t.system.fleet, t.system.limits,
            t.system.t_turbine)
           for uid in t.contingency.credible_outages},
    }
    expected = {
        "small/out": ("0x1.e6a74981446f8p-5", "0x1.16cfd7720f354p+2",
                      "0x0.0p+0", "0x0.0p+0"),
        "c4/u1": ("0x1.5ed163b9d8481p-4", "0x1.8bbb33d284c75p+2",
                  "0x1.5ecbf27f2675fp+4", "0x0.0p+0"),
        "study/G5": ("0x1.1745d1745d174p-4", "0x0.0p+0",
                     "0x1.3d55555555555p+4", "0x0.0p+0"),
        "study/G6": ("0x1.bed61bed61bedp-5", "0x1.7e8ba2e8ba2e9p+1",
                     "0x0.0p+0", "0x0.0p+0"),
        "study/G7": ("0x1.745d1745d1746p-5", "0x1.1e8ba2e8ba2e9p+1",
                     "0x0.0p+0", "0x0.0p+0"),
        "study/G8": ("0x1.29e4129e4129ep-5", "0x1.a0f83e0f83e10p+0",
                     "0x0.0p+0", "0x0.0p+0"),
    }
    got = {}
    for name, cloud in clouds.items():
        assert len(cloud) <= 1 << 12   # the exact search, not the binned
        b = extract_bounds(cloud, limits)
        got[name] = (b.delta_p.hex(), b.f_lim.hex(), b.r_lim.hex(),
                     b.m_lim.hex())
    assert got == expected


def loop_fit_max_affine(points, values, n_segments, restarts=20, seed=0,
                        warm_start=None):
    """The per-restart loop that ``fit_max_affine`` batches: one restart at
    a time, one ``np.linalg.lstsq`` per segment per round."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    y = np.asarray(values, dtype=float)
    n, dim = pts.shape
    design = np.hstack([pts, np.ones((n, 1))])
    rng = np.random.default_rng(seed)

    def objective(coeffs):
        res = (design @ coeffs.T).max(axis=1) - y
        return float(res @ res)

    def refit(coeffs):
        pred = design @ coeffs.T
        assign = np.argmax(pred, axis=1)
        new = coeffs.copy()
        for s in range(n_segments):
            sel = assign == s
            if np.count_nonzero(sel) < dim + 1:
                res = np.abs(pred.max(axis=1) - y)
                sel = np.argsort(res)[-(dim + 1):]
            new[s] = np.linalg.lstsq(design[sel], y[sel], rcond=None)[0]
        return new

    inits = []
    if warm_start is not None:
        ws = np.asarray(warm_start, dtype=float)
        if ws.shape[0] < n_segments:
            pad = ws[rng.integers(0, ws.shape[0],
                                  n_segments - ws.shape[0])]
            ws = np.vstack([ws, pad])
        inits.append(ws[:n_segments])
    for _ in range(restarts):
        coeffs = np.empty((n_segments, dim + 1))
        assign = rng.integers(0, n_segments, n)
        for s in range(n_segments):
            sel = assign == s
            if np.count_nonzero(sel) < dim + 1:
                sel = rng.choice(n, dim + 1, replace=False)
            coeffs[s] = np.linalg.lstsq(design[sel], y[sel], rcond=None)[0]
        inits.append(coeffs)

    best_obj, best_coeffs = math.inf, None
    for coeffs in inits:
        obj = objective(coeffs)
        for _ in range(nl._FIT_MAX_ITER):
            new = refit(coeffs)
            new_obj = objective(new)
            if not np.isfinite(new_obj):
                break
            if new_obj >= obj - 1e-14:
                if new_obj < obj:
                    coeffs, obj = new, new_obj
                break
            coeffs, obj = new, new_obj
        if obj < best_obj:
            best_obj, best_coeffs = obj, coeffs
    return best_coeffs, math.sqrt(best_obj / n)


def fit_cases():
    """(points, values) of a nadir grid, of a seeded random cloud, and of
    one with 16 points, where segments start and fall below 4 points."""
    fleet = ConverterFleet(vsm_capacity=100.0, droop_capacity=50.0)
    limits = FrequencyLimits()
    cloud = enumerate_commitments(synthetic_fleet(8), "u1", fleet, limits,
                                  7.0)
    fn = make_nadir_fn(cloud.d, 7.0, cloud.delta_p, limits, m_v=cloud.m_v)
    grid = nadir_grid(cloud, 5)
    rng = np.random.default_rng(12)
    pts = rng.uniform(-2.0, 2.0, size=(150, 3))
    vals = (np.maximum(pts[:, 0], 0.4 * pts[:, 1] ** 2)
            + 0.2 * np.abs(pts[:, 2]) + 0.05 * rng.standard_normal(150))
    return {"nadir": (grid, fn(grid[:, 0], grid[:, 1], grid[:, 2])),
            "random": (pts, vals), "sparse": (pts[:16], vals[:16])}


class TestMaxAffine:
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("case", ["nadir", "random", "sparse"])
    def test_matches_the_per_restart_loop(self, case, k, warm):
        points, values = fit_cases()[case]
        ws = (loop_fit_max_affine(points, values, k - 1, restarts=5,
                                  seed=3)[0] if warm else None)
        want, want_rmse = loop_fit_max_affine(points, values, k,
                                              restarts=25, seed=9,
                                              warm_start=ws)
        got, rmse = fit_max_affine(points, values, k, restarts=25, seed=9,
                                   warm_start=ws)
        assert rmse == pytest.approx(want_rmse, rel=1e-12, abs=0.0)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("case, k", [("nadir", 3), ("sparse", 2)])
    def test_zero_restarts_refits_the_warm_start(self, case, k):
        # the warm start is padded by a copy of one of its segments, so
        # points tie between the two and go to the first
        points, values = fit_cases()[case]
        ws = loop_fit_max_affine(points, values, k - 1, restarts=1)[0]
        want, want_rmse = loop_fit_max_affine(points, values, k, restarts=0,
                                              seed=4, warm_start=ws)
        got, rmse = fit_max_affine(points, values, k, restarts=0, seed=4,
                                   warm_start=ws)
        assert rmse == pytest.approx(want_rmse, rel=1e-12, abs=0.0)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("shape", ["collinear", "coplanar"])
    def test_degenerate_segment_gets_the_minimum_norm_answer(self, shape):
        # one segment holds every point, so the fit is one least-squares
        # solve on a rank-deficient design: 2 of 4 columns when the points
        # lie on a line, 3 of 4 on a plane of the grid
        if shape == "collinear":
            t = np.linspace(0.0, 1.0, 9)
            pts = np.array([0.3, -1.2, 2.0]) + t[:, None] * [1.0, 0.5, -2.0]
            vals = np.exp(t)
        else:
            r, f = np.meshgrid(np.linspace(0.1, 0.9, 4),
                               np.linspace(0.2, 0.5, 3), indexing="ij")
            pts = np.column_stack([r.ravel(), f.ravel(),
                                   np.full(r.size, 7.25)])
            vals = np.sin(3 * r.ravel()) * f.ravel()
        design = np.hstack([pts, np.ones((len(pts), 1))])
        want, _, rank, _ = np.linalg.lstsq(design, vals, rcond=None)
        assert rank == (2 if shape == "collinear" else 3)
        got, _ = fit_max_affine(pts, vals, 1, restarts=1)
        assert np.abs(got[0] - want).max() <= 1e-12

    @pytest.mark.parametrize("block", [1, 1 << 20])
    def test_block_size_does_not_change_bits(self, monkeypatch, block):
        points, values = fit_cases()["nadir"]
        want = fit_max_affine(points, values, 4, restarts=30, seed=2)
        monkeypatch.setattr(nl, "_FIT_BLOCK", block)
        got = fit_max_affine(points, values, 4, restarts=30, seed=2)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    @pytest.mark.parametrize("k, restarts, match", [
        (0, 5, "need at least 1 segment, got 0"),
        (-2, 5, "need at least 1 segment, got -2"),
        (2, -1, "restarts must be >= 0, got -1"),
    ])
    def test_bad_arguments_rejected(self, k, restarts, match):
        x = np.linspace(0.0, 1.0, 20)
        with pytest.raises(LinearizationError, match=match):
            fit_max_affine(x, np.exp(x), k, restarts=restarts)

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
        fn = make_nadir_fn(cloud.d, 7.0, cloud.delta_p, limits,
                           m_v=cloud.m_v)
        grid = nadir_grid(cloud, n_per_dim=5)
        fit = fit_pwl(fn, grid, 4, restarts=40, seed=0)
        assert fit.rmse < 0.05
        vals = (np.hstack([grid, np.ones((len(grid), 1))])
                @ fit.coeffs.T).max(axis=1)
        truth = fn(grid[:, 0], grid[:, 1], grid[:, 2])
        assert np.sqrt(np.mean((vals - truth) ** 2)) == pytest.approx(
            fit.rmse, rel=1e-9)

    def test_to_json(self, tmp_path, fleet_conv, limits):
        units = small_fleet()
        cloud = enumerate_commitments(units, "out", fleet_conv, limits, 7.0)
        fn = make_nadir_fn(cloud.d, 7.0, cloud.delta_p, limits,
                           m_v=cloud.m_v)
        fit = fit_pwl(fn, nadir_grid(cloud, 5), 3, restarts=10)
        path = tmp_path / "fit.json"
        fit.to_json(path)
        payload = json.loads(path.read_text())
        assert len(payload["segments"]) == 3
        assert payload["rmse"] == fit.rmse


PINNED_FIT = """
import json, os, sys
os.sched_setaffinity(0, {cpus})
sys.path[:0] = {paths}
from test_nadir_linearization import pinned_fit
print(json.dumps(pinned_fit()))
"""


def pinned_fit():
    """One study-sized surrogate fit, as hex floats."""
    fleet = ConverterFleet(vsm_capacity=120.0, droop_capacity=60.0)
    limits = FrequencyLimits()
    cloud = enumerate_commitments(synthetic_fleet(10), "u1", fleet, limits,
                                  7.0)
    fn = make_nadir_fn(cloud.d, 7.0, cloud.delta_p, limits, m_v=cloud.m_v)
    fit = fit_pwl(fn, nadir_grid(cloud, 6), 4, restarts=120, seed=0)
    return [float(c).hex() for c in fit.coeffs.ravel()] + [fit.rmse.hex()]


def test_fit_pwl_ignores_the_cpu_count():
    """A PWL fit comes back bit for bit the same in a process pinned to
    one CPU and in one that may use every CPU this one may.  The mask is
    set before numpy loads, so OpenBLAS sizes its thread pool from it."""
    paths = [str(Path(gridfreq.__file__).resolve().parents[1]),
             str(Path(__file__).resolve().parent)]
    every = sorted(os.sched_getaffinity(0))
    children = [subprocess.Popen(
        [sys.executable, "-c", PINNED_FIT.format(cpus=cpus, paths=paths)],
        stdout=subprocess.PIPE, text=True) for cpus in ({every[0]}, every)]
    one, all_cpus = [json.loads(child.communicate(timeout=300)[0])
                     for child in children]
    assert all(child.returncode == 0 for child in children)
    assert one == all_cpus
