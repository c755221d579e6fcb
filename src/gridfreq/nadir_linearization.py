"""Linear surrogates of the nonlinear frequency-nadir constraint.

Two routes are provided: exhaustive enumeration of post-outage commitment
combinations with extraction of safe lower bounds on the aggregate droop,
turbine fraction and inertia, and a max-affine piecewise-linear fit of
the nadir surface for use as epigraph rows in the MILP.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .freq_dynamics import frequency_weights, nadir_closed_form
from .system import ConverterFleet, FrequencyLimits, SynchronousUnit

ENUMERATION_GUARD = 25


class LinearizationError(ValueError):
    pass


@dataclass
class CommitmentCloud:
    """Vectorized enumeration result over surviving-unit commitments.

    Row ``s`` corresponds to bit pattern ``s`` over ``survivor_ids``
    (bit j set = unit j online).
    """

    survivor_ids: list[str]
    delta_p: float
    m_v: float
    d: np.ndarray
    m: np.ndarray
    r_g: np.ndarray
    f_g: np.ndarray
    nadir_hz: np.ndarray
    safe: np.ndarray

    def __len__(self) -> int:
        return len(self.m)

    def mask_of(self, online_ids: set[str]) -> int:
        mask = 0
        for j, uid in enumerate(self.survivor_ids):
            if uid in online_ids:
                mask |= 1 << j
        return mask


@dataclass
class NadirBounds:
    """Box lower bounds substituting the nadir constraint for one outage."""

    delta_p: float
    f_lim: float
    r_lim: float
    m_lim: float

    def to_json(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "NadirBounds":
        with open(path) as fh:
            return cls(**json.load(fh))


@dataclass
class PwlSegment:
    a: float   # coefficient of r_g
    b: float   # coefficient of f_g
    c: float   # coefficient of m
    d: float   # intercept


@dataclass
class PwlFit:
    segments: list[PwlSegment]
    rmse: float

    def evaluate(self, r_g, f_g, m):
        vals = [s.a * np.asarray(r_g) + s.b * np.asarray(f_g)
                + s.c * np.asarray(m) + s.d for s in self.segments]
        return np.max(vals, axis=0)

    def to_json(self, path: str | Path) -> None:
        payload = {"segments": [asdict(s) for s in self.segments],
                   "rmse": self.rmse}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def enumerate_commitments(units: Sequence[SynchronousUnit], outage_unit: str,
                          fleet: ConverterFleet, limits: FrequencyLimits,
                          t_turbine: float) -> CommitmentCloud:
    """Nadir over all on/off patterns of the units surviving one outage.

    The full-fleet aggregate damping is used for every point, matching
    the damping treatment in the UC model.
    """
    survivor_idx = [k for k, u in enumerate(units) if u.id != outage_unit]
    if len(survivor_idx) == len(units):
        raise LinearizationError(f"outage unit {outage_unit!r} not in system")
    if len(units) > ENUMERATION_GUARD:
        raise LinearizationError(
            f"{len(units)} units exceeds the enumeration guard of "
            f"{ENUMERATION_GUARD}; use a sampling approach instead")

    w = frequency_weights(units, fleet)
    failed = next(u for u in units if u.id == outage_unit)
    delta_p = failed.p_max / w.s_base
    n = len(survivor_idx)

    # little-endian bytes of each mask, unpacked least significant bit first
    masks = np.arange(1 << n, dtype="<u4").view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(masks, axis=1, count=n,
                         bitorder="little").astype(float)
    m = bits @ w.m_w[survivor_idx]
    r_g = bits @ w.r_w[survivor_idx]
    f_g = bits @ w.f_w[survivor_idx]
    d = np.full(len(bits), w.d)

    nadir = nadir_closed_form(m + w.m_v, d, r_g, f_g, t_turbine, delta_p,
                              limits.f_base)
    safe = nadir <= limits.nadir_lim
    safe[0] = False   # all survivors offline: unsafe by convention
    return CommitmentCloud(survivor_ids=[units[k].id for k in survivor_idx],
                           delta_p=delta_p, m_v=w.m_v, d=d, m=m, r_g=r_g,
                           f_g=f_g, nadir_hz=nadir, safe=safe)


def admitted(cloud: CommitmentCloud, bounds: NadirBounds) -> np.ndarray:
    """Boolean mask of cloud points inside the bounds box."""
    return ((cloud.f_g >= bounds.f_lim) & (cloud.r_g >= bounds.r_lim)
            & (cloud.m >= bounds.m_lim))


def extract_bounds(cloud: CommitmentCloud,
                   limits: FrequencyLimits) -> NadirBounds:
    """Safe box thresholds on (f_g, r_g, m) from the enumerated cloud.

    Every point inside the returned box is safe; among candidate triples
    built from coordinate values present in the cloud, the box admitting
    the most safe points wins, with ties broken by smaller m_lim then
    smaller r_lim.  The nadir surface is not monotone in r_g, so safety
    is established by exhaustive verification rather than assumed.

    Clouds beyond 2^12 points switch to a quantile-binned candidate
    search: the safety guarantee stays exact, only the admitted-safe
    maximization becomes heuristic.
    """
    if len(cloud) == 0:
        raise LinearizationError("empty commitment cloud")
    if not cloud.safe.any():
        raise LinearizationError(
            "system cannot meet nadir limit: no safe commitment pattern")
    if len(cloud) > 1 << 12:
        return _extract_bounds_binned(cloud)

    f, r, m, safe = cloud.f_g, cloud.r_g, cloud.m, cloud.safe
    f_vals = np.unique(f)
    r_vals = np.unique(r)
    m_vals = np.unique(m)

    def next_above(vals: np.ndarray, x: float) -> float | None:
        idx = np.searchsorted(vals, x, side="right")
        return None if idx >= len(vals) else float(vals[idx])

    best = None   # (-n_safe, m_lim, r_lim, f_lim)
    for m_lim in m_vals:
        region = m >= m_lim
        unsafe = region & ~safe
        candidates: list[tuple[float, float]] = []
        if not unsafe.any():
            candidates.append((float(f_vals[0]), float(r_vals[0])))
        else:
            fu, ru = f[unsafe], r[unsafe]
            # Pareto-maximal unsafe points in (f, r) dominate the rest.
            order = np.lexsort((-ru, -fu))
            pf, pr = [], []
            r_best = -np.inf
            for idx in order:
                if ru[idx] > r_best:
                    pf.append(fu[idx])
                    pr.append(ru[idx])
                    r_best = ru[idx]
            # pf descending, pr ascending along the frontier
            for j in range(len(pf) + 1):
                # exclude frontier points j..end by f, points 0..j-1 by r
                if j < len(pf):
                    f_lim = next_above(f_vals, pf[j])
                    if f_lim is None:
                        continue
                else:
                    f_lim = float(f_vals[0])
                if j > 0:
                    r_lim = next_above(r_vals, pr[j - 1])
                    if r_lim is None:
                        continue
                else:
                    r_lim = float(r_vals[0])
                candidates.append((f_lim, r_lim))
        for f_lim, r_lim in candidates:
            box = region & (f >= f_lim) & (r >= r_lim)
            if np.any(box & ~safe):
                continue
            key = (-int(np.count_nonzero(box & safe)), float(m_lim), r_lim)
            if best is None or key < best[0]:
                best = (key, NadirBounds(delta_p=cloud.delta_p, f_lim=f_lim,
                                         r_lim=r_lim, m_lim=float(m_lim)))
    if best is None:
        raise LinearizationError(
            "system cannot meet nadir limit: no admissible box")
    bounds = best[1]
    box = admitted(cloud, bounds)
    assert not np.any(box & ~cloud.safe), "admitted an unsafe point"
    return bounds


def _extract_bounds_binned(cloud: CommitmentCloud,
                           n_bins: int = 64) -> NadirBounds:
    """Quantile-binned bound search for large clouds.

    Candidate (m_lim, f_lim) pairs come from bin edges taken at quantiles
    of the coordinate values; for each pair the exact maximum r over the
    admitted unsafe points is read off a 2-D suffix-max table, so the
    resulting r_lim excludes every unsafe point with certainty.
    """
    f, r, m, safe = cloud.f_g, cloud.r_g, cloud.m, cloud.safe
    unsafe = ~safe
    f_vals, r_vals, m_vals = np.unique(f), np.unique(r), np.unique(m)

    def edges(vals: np.ndarray) -> np.ndarray:
        if len(vals) <= n_bins:
            return vals
        idx = np.unique(np.linspace(0, len(vals) - 1, n_bins).astype(int))
        return vals[idx]

    m_edges, f_edges = edges(m_vals), edges(f_vals)
    mb = np.searchsorted(m_edges, m[unsafe], side="right") - 1
    fb = np.searchsorted(f_edges, f[unsafe], side="right") - 1
    maxr = np.full((len(m_edges), len(f_edges)), -np.inf)
    np.maximum.at(maxr, (mb, fb), r[unsafe])
    # suffix max over both axes: exact max r of unsafe points with
    # m >= m_edges[i] and f >= f_edges[j]
    maxr = np.flip(np.maximum.accumulate(np.flip(maxr, 0), 0), 0)
    maxr = np.flip(np.maximum.accumulate(np.flip(maxr, 1), 1), 1)

    # approximate admitted-safe counts from a 3-D reverse-cumulative
    # histogram; only candidate ranking is approximate, safety is not
    r_edges = edges(r_vals)
    smb = np.searchsorted(m_edges, m[safe], side="right") - 1
    sfb = np.searchsorted(f_edges, f[safe], side="right") - 1
    srb = np.searchsorted(r_edges, r[safe], side="right") - 1
    shape = (len(m_edges), len(f_edges), len(r_edges))
    cell = np.ravel_multi_index((smb, sfb, srb), shape)
    counts = np.bincount(cell, minlength=math.prod(shape)).reshape(shape)
    for axis in range(3):
        counts = np.flip(np.cumsum(np.flip(counts, axis), axis=axis), axis)

    # one candidate per (m_lim, f_lim) cell: the smallest r above the
    # cell's largest unsafe r (r_vals[0] when it holds none); a cell whose
    # largest unsafe r is the largest r in the cloud has no candidate
    idx = np.searchsorted(r_vals, maxr, side="right")
    ci, cj = np.nonzero(idx < len(r_vals))
    if len(ci) == 0:
        raise LinearizationError(
            "system cannot meet nadir limit: no admissible box")
    r_lim = r_vals[idx[ci, cj]]
    k = np.searchsorted(r_edges, r_lim, side="left")
    n_safe = np.where(k < len(r_edges),
                      counts[ci, cj, np.minimum(k, len(r_edges) - 1)], 0)
    # most admitted safe points, then smaller m_lim, then smaller r_lim;
    # the sort is stable, so a full tie keeps the first cell in (m, f) order
    best = np.lexsort((r_lim, m_edges[ci], -n_safe))[0]
    bounds = NadirBounds(delta_p=cloud.delta_p,
                         f_lim=float(f_edges[cj[best]]),
                         r_lim=float(r_lim[best]),
                         m_lim=float(m_edges[ci[best]]))
    box = admitted(cloud, bounds)
    assert not np.any(box & ~cloud.safe), "admitted an unsafe point"
    return bounds


def fit_max_affine(points: np.ndarray, values: np.ndarray, n_segments: int,
                   restarts: int = 20, max_iter: int = 100, seed: int = 0,
                   warm_start: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Least-squares max-affine fit by alternating assignment and refit.

    ``points`` is (n, dim); returns ``(coeffs, rmse)`` where ``coeffs``
    is (n_segments, dim + 1) with the intercept last.  Each restart
    alternates (i) assign every point to its active segment, (ii) refit
    each segment on its assigned points, keeping the best objective seen;
    the recorded objective is therefore non-increasing.  ``warm_start``
    adds one restart initialized from existing segment coefficients
    (padded by duplication when it has fewer rows).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    y = np.asarray(values, dtype=float)
    n, dim = pts.shape
    if n < 4 * n_segments:
        raise LinearizationError(
            f"grid of {n} points too sparse for {n_segments} segments "
            f"(need >= {4 * n_segments})")
    design = np.hstack([pts, np.ones((n, 1))])
    rng = np.random.default_rng(seed)

    def objective(coeffs: np.ndarray) -> tuple[float, np.ndarray]:
        pred = (design @ coeffs.T).max(axis=1)
        res = pred - y
        return float(res @ res), pred

    def refit(coeffs: np.ndarray) -> np.ndarray:
        pred = design @ coeffs.T
        assign = np.argmax(pred, axis=1)
        new = coeffs.copy()
        for s in range(n_segments):
            sel = assign == s
            if np.count_nonzero(sel) < dim + 1:
                # dead or degenerate segment: reseed on worst-fit points
                res = np.abs(pred.max(axis=1) - y)
                sel = np.argsort(res)[-(dim + 1):]
            sol, *_ = np.linalg.lstsq(design[sel], y[sel], rcond=None)
            new[s] = sol
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
        # random partition init: fit each segment on a random point subset
        coeffs = np.empty((n_segments, dim + 1))
        assign = rng.integers(0, n_segments, n)
        for s in range(n_segments):
            sel = assign == s
            if np.count_nonzero(sel) < dim + 1:
                sel = rng.choice(n, dim + 1, replace=False)
            sol, *_ = np.linalg.lstsq(design[sel], y[sel], rcond=None)
            coeffs[s] = sol
        inits.append(coeffs)

    best_obj = math.inf
    best_coeffs = None
    for coeffs in inits:
        obj, _ = objective(coeffs)
        for _ in range(max_iter):
            new = refit(coeffs)
            new_obj, _ = objective(new)
            if not np.isfinite(new_obj):
                break
            if new_obj >= obj - 1e-14:
                if new_obj < obj:
                    coeffs, obj = new, new_obj
                break
            coeffs, obj = new, new_obj
        if obj < best_obj:
            best_obj, best_coeffs = obj, coeffs
    if best_coeffs is None:
        raise LinearizationError("max-affine fit failed on every restart")
    return best_coeffs, math.sqrt(best_obj / n)


def nadir_grid(cloud_or_ranges, n_per_dim: int = 4) -> np.ndarray:
    """Regular (r_g, f_g, m) evaluation grid over given coordinate ranges.

    Accepts either a CommitmentCloud (ranges from its safe-relevant
    extent) or a tuple of three (lo, hi) pairs.
    """
    if isinstance(cloud_or_ranges, CommitmentCloud):
        c = cloud_or_ranges
        pos = c.m > 0
        ranges = [(float(c.r_g[pos].min()), float(c.r_g.max())),
                  (float(c.f_g[pos].min()), float(c.f_g.max())),
                  (float(c.m[pos].min()), float(c.m.max()))]
    else:
        ranges = list(cloud_or_ranges)
    axes = [np.linspace(lo, hi, n_per_dim) for lo, hi in ranges]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return grid.reshape(-1, 3)


def fit_pwl(nadir_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
            grid: np.ndarray, n_segments: int, restarts: int = 20,
            seed: int = 0,
            warm_start: PwlFit | None = None) -> PwlFit:
    """Max-affine fit of the nadir surface over a (r_g, f_g, m) grid.

    ``nadir_fn`` must evaluate the nadir at fixed aggregate damping, in
    Hz, vectorized over its three arguments.
    """
    grid = np.asarray(grid, dtype=float)
    y = np.asarray(nadir_fn(grid[:, 0], grid[:, 1], grid[:, 2]), dtype=float)
    ws = None
    if warm_start is not None:
        ws = np.array([[s.a, s.b, s.c, s.d] for s in warm_start.segments])
    coeffs, rmse = fit_max_affine(grid, y, n_segments, restarts=restarts,
                                  seed=seed, warm_start=ws)
    segments = [PwlSegment(a=float(c[0]), b=float(c[1]), c=float(c[2]),
                           d=float(c[3])) for c in coeffs]
    return PwlFit(segments=segments, rmse=rmse)


def make_nadir_fn(d: float, t_turbine: float, delta_p: float,
                  limits: FrequencyLimits, m_v: float = 0.0):
    """Nadir surface (r_g, f_g, m) -> Hz at fixed damping, for PWL fitting."""
    def fn(r_g, f_g, m):
        return nadir_closed_form(np.asarray(m, dtype=float) + m_v, d,
                                 r_g, f_g, t_turbine, delta_p, limits.f_base)
    return fn


def benchmark_linearizations(units: Sequence[SynchronousUnit],
                             outage_unit: str, fleet: ConverterFleet,
                             limits: FrequencyLimits, t_turbine: float,
                             segment_counts: tuple[int, int] = (3, 4),
                             grid_per_dim: int = 8,
                             restarts: int = 500, seed: int = 0) -> dict:
    """Wall-clock comparison of bound extraction vs PWL fitting.

    The restart budget is sized for stable near-global fits; the fitting
    objective is nonconvex and the restart count is the knob that buys
    fit quality.
    """
    t0 = time.perf_counter()
    cloud = enumerate_commitments(units, outage_unit, fleet, limits,
                                  t_turbine)
    bounds = extract_bounds(cloud, limits)
    t_bounds = time.perf_counter() - t0

    fn = make_nadir_fn(float(cloud.d[0]), t_turbine, cloud.delta_p, limits,
                       m_v=cloud.m_v)
    grid = nadir_grid(cloud, n_per_dim=grid_per_dim)
    pwl_times = {}
    fits = {}
    for k in segment_counts:
        t0 = time.perf_counter()
        fits[k] = fit_pwl(fn, grid, k, restarts=restarts, seed=seed)
        pwl_times[k] = time.perf_counter() - t0
    return {"bounds": bounds, "bounds_time_s": t_bounds,
            "pwl_fits": fits, "pwl_times_s": pwl_times,
            "n_points": len(cloud)}
