"""Linear surrogates of the nonlinear frequency-nadir constraint.

Two routes are provided: exhaustive enumeration of post-outage commitment
combinations with extraction of safe lower bounds on the aggregate droop,
turbine fraction and inertia, and a max-affine piecewise-linear fit of
the nadir surface for use as epigraph rows in the MILP.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .freq_dynamics import frequency_weights, nadir_closed_form
from .system import ConverterFleet, FrequencyLimits, SynchronousUnit

ENUMERATION_GUARD = 25
_BOUND_BINS = 64       # quantile bins per axis of the binned bound search
# masks per block of the enumeration and of the binned bound search, which
# bounds their temporaries
_CLOUD_BLOCK = 1 << 14
_FIT_MAX_ITER = 100    # assignment/refit rounds per max-affine restart
# (restart, point) pairs per block of the batched max-affine fit, which
# bounds its temporaries
_FIT_BLOCK = 1 << 14


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
    d: float
    m: np.ndarray
    r_g: np.ndarray
    f_g: np.ndarray
    nadir_hz: np.ndarray
    safe: np.ndarray

    def __len__(self) -> int:
        return len(self.m)


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


@dataclass
class PwlFit:
    # (k, 4): segment k is a * r_g + b * f_g + c * m + d, one row (a, b, c, d)
    coeffs: np.ndarray
    rmse: float

    def to_json(self, path: str | Path) -> None:
        payload = {"segments": [dict(zip("abcd", map(float, row)))
                                for row in self.coeffs],
                   "rmse": self.rmse}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _survivor_sums(masks: np.ndarray | Sequence[int],
                   weights: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Sum of each survivor weight vector over the units online in each mask.

    Bit j of a mask is survivor j's on/off state.  Each sum is its own
    matrix-vector product of the 0/1 bit matrix with one weight vector.
    A fixed-order sum over units, or one product with the three weight
    vectors as columns, rounds some points differently in the last bit.
    """
    # little-endian bytes of each mask, unpacked least significant bit first
    masks = np.asarray(masks, dtype="<u4").view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(masks, axis=1, count=len(weights[0]),
                         bitorder="little").astype(float)
    return [bits @ w for w in weights]


def enumerate_commitments(units: Sequence[SynchronousUnit], outage_unit: str,
                          fleet: ConverterFleet, limits: FrequencyLimits,
                          t_turbine: float) -> CommitmentCloud:
    """Nadir over all on/off patterns of the units surviving one outage.

    The full-fleet aggregate damping is used for every point, matching
    the damping treatment in the UC model.  Masks are taken
    ``_CLOUD_BLOCK`` at a time, so the temporaries are bounded by the
    block and the cloud's 33 bytes per point are all that grows with it.
    Each point depends only on its own mask, so the cloud is the same
    bit for bit whatever the block size.
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
    weights = [w.m_w[survivor_idx], w.r_w[survivor_idx], w.f_w[survivor_idx]]
    size = 1 << len(survivor_idx)

    m, r_g, f_g, nadir = (np.empty(size) for _ in range(4))
    for lo in range(0, size, _CLOUD_BLOCK):
        blk = slice(lo, min(lo + _CLOUD_BLOCK, size))
        m[blk], r_g[blk], f_g[blk] = _survivor_sums(
            np.arange(blk.start, blk.stop), weights)
        nadir[blk] = nadir_closed_form(m[blk] + w.m_v, w.d, r_g[blk],
                                       f_g[blk], t_turbine, delta_p,
                                       limits.f_base)
    safe = nadir <= limits.nadir_lim
    safe[0] = False   # all survivors offline: unsafe by convention
    return CommitmentCloud(survivor_ids=[units[k].id for k in survivor_idx],
                           delta_p=delta_p, m_v=w.m_v, d=w.d, m=m, r_g=r_g,
                           f_g=f_g, nadir_hz=nadir, safe=safe)


def cloud_point(units: Sequence[SynchronousUnit], outage_unit: str,
                fleet: ConverterFleet, online: set[str]
                ) -> tuple[float, float, float]:
    """(m, r_g, f_g) of the cloud point with exactly the survivors in
    ``online`` committed, summed as ``enumerate_commitments`` sums it."""
    w = frequency_weights(units, fleet)
    survivors = [k for k, u in enumerate(units) if u.id != outage_unit]
    mask = sum(1 << j for j, k in enumerate(survivors)
               if units[k].id in online)
    sums = _survivor_sums([mask], [w.m_w[survivors], w.r_w[survivors],
                                   w.f_w[survivors]])
    return tuple(float(x[0]) for x in sums)


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
    smaller r_lim.  The nadir surface is not monotone in r_g, so every
    candidate box is built to exclude each unsafe point of the cloud
    rather than from an assumed monotonicity.

    Clouds beyond 2^12 points switch to a quantile-binned candidate
    search: the safety guarantee stays exact, only the admitted-safe
    maximization becomes heuristic.
    """
    if len(cloud) == 0:
        raise LinearizationError("empty commitment cloud")
    if not cloud.safe.any():
        raise LinearizationError(
            "system cannot meet nadir limit: no safe commitment pattern")
    bounds = (_extract_bounds_binned(cloud) if len(cloud) > 1 << 12
              else _extract_bounds_exact(cloud))
    if np.any(admitted(cloud, bounds) & ~cloud.safe):
        raise LinearizationError("bound extraction admitted an unsafe point")
    return bounds


def _extract_bounds_exact(cloud: CommitmentCloud) -> NadirBounds:
    """Every staircase corner of the unsafe points, for small clouds."""
    f, r, m, safe = cloud.f_g, cloud.r_g, cloud.m, cloud.safe
    f_vals, r_vals = np.unique(f), np.unique(r)
    corners = []   # (m_lim, f_lim, r_lim, n_safe) per staircase corner
    for m_lim in np.unique(m):
        region = m >= m_lim
        unsafe = region & ~safe
        # Pareto-maximal unsafe points in (f, r) dominate the rest; along
        # the frontier f descends and r ascends
        order = np.lexsort((-r[unsafe], -f[unsafe]))
        fu, ru = f[unsafe][order], r[unsafe][order]
        top = ru > np.r_[-np.inf, np.maximum.accumulate(ru)[:-1]]
        # corner j excludes frontier points j.. by f and points ..j-1 by r
        # with the next cloud value above; no value above, no corner
        fi = np.r_[np.searchsorted(f_vals, fu[top], side="right"), 0]
        ri = np.r_[0, np.searchsorted(r_vals, ru[top], side="right")]
        ok = (fi < len(f_vals)) & (ri < len(r_vals))
        f_lim, r_lim = f_vals[fi[ok]], r_vals[ri[ok]]
        ins = region & safe
        n_safe = np.count_nonzero((f[ins] >= f_lim[:, None])
                                  & (r[ins] >= r_lim[:, None]), axis=1)
        corners.append((np.full(len(f_lim), m_lim), f_lim, r_lim, n_safe))
    m_lim, f_lim, r_lim, n_safe = map(np.concatenate, zip(*corners))
    if len(m_lim) == 0:
        raise LinearizationError(
            "system cannot meet nadir limit: no admissible box")
    # most admitted safe points, then smaller m_lim, then smaller r_lim
    best = np.lexsort((r_lim, m_lim, -n_safe))[0]
    return NadirBounds(delta_p=cloud.delta_p, f_lim=float(f_lim[best]),
                       r_lim=float(r_lim[best]), m_lim=float(m_lim[best]))


def _extract_bounds_binned(cloud: CommitmentCloud) -> NadirBounds:
    """Quantile-binned bound search for large clouds.

    Candidate (m_lim, f_lim) pairs come from bin edges taken at quantiles
    of the coordinate values; for each pair the exact maximum r over the
    admitted unsafe points is read off a 2-D suffix-max table, so the
    resulting r_lim excludes every unsafe point with certainty.

    The edges come from the whole cloud; the table and the safe-point
    histogram are then accumulated ``_CLOUD_BLOCK`` points at a time.
    A maximum and an integer count do not depend on the order they are
    accumulated in, so the bounds are the same for every block size.
    """
    f, r, m, safe = cloud.f_g, cloud.r_g, cloud.m, cloud.safe

    def edges(vals: np.ndarray) -> np.ndarray:
        if len(vals) <= _BOUND_BINS:
            return vals
        idx = np.unique(np.linspace(0, len(vals) - 1, _BOUND_BINS).astype(int))
        return vals[idx]

    m_edges, f_edges = edges(np.unique(m)), edges(np.unique(f))
    r_vals = np.unique(r)
    r_edges = edges(r_vals)
    shape = (len(m_edges), len(f_edges), len(r_edges))
    maxr = np.full(shape[:2], -np.inf)
    counts = np.zeros(math.prod(shape), dtype=np.intp)
    for lo in range(0, len(cloud), _CLOUD_BLOCK):
        blk = slice(lo, lo + _CLOUD_BLOCK)
        s, u = safe[blk], ~safe[blk]
        mb = np.searchsorted(m_edges, m[blk], side="right") - 1
        fb = np.searchsorted(f_edges, f[blk], side="right") - 1
        np.maximum.at(maxr, (mb[u], fb[u]), r[blk][u])
        # approximate admitted-safe counts from a 3-D histogram; only
        # candidate ranking is approximate, safety is not
        rb = np.searchsorted(r_edges, r[blk][s], side="right") - 1
        np.add.at(counts, np.ravel_multi_index((mb[s], fb[s], rb), shape), 1)
    # suffix max over both axes: exact max r of unsafe points with
    # m >= m_edges[i] and f >= f_edges[j]
    maxr = np.flip(np.maximum.accumulate(np.flip(maxr, 0), 0), 0)
    maxr = np.flip(np.maximum.accumulate(np.flip(maxr, 1), 1), 1)
    # reverse-cumulative: safe points with m, f and r at or above each edge
    counts = counts.reshape(shape)
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
    return NadirBounds(delta_p=cloud.delta_p,
                       f_lim=float(f_edges[cj[best]]),
                       r_lim=float(r_lim[best]),
                       m_lim=float(m_edges[ci[best]]))


def _segment_lstsq(design: np.ndarray, y: np.ndarray, moments: np.ndarray,
                   member: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of every segment of every restart.

    ``member`` is (R, k, n): 1 where a point belongs to a segment, 0
    elsewhere.  ``moments`` holds each point's design outer product and
    design row times value.  Segment (r, s) gets what ``np.linalg.lstsq``
    gives on its points, the minimum-norm answer included when they span
    fewer dimensions than the design has columns (coplanar grid points,
    say).  It is solved through the Hermitian pseudo-inverse of the
    segment's Gram matrix, whose eigenvalues at or below
    ``d1 * max(count, d1) * eps`` of the largest are dropped: that is as
    far as rounding in the Gram matrix's sums of ``count`` products can
    move one.  One refinement step on the residuals then recovers the
    digits that the normal equations lose.

    Each product is one small BLAS call per restart, (k, n) by (n, .).
    OpenBLAS keeps a product on one thread while m * n * k <= 2^18, so
    for grids up to about 3,000 points at k = 4 the answer does not
    depend on the CPU count.
    """
    d1 = design.shape[1]
    sums = member @ moments
    cut = np.finfo(float).eps * d1 * np.maximum(member.sum(axis=2), d1)
    pinv = np.linalg.pinv(
        sums[..., :d1 * d1].reshape(member.shape[:2] + (d1, d1)),
        rcond=cut, hermitian=True)
    coeffs = (pinv @ sums[..., d1 * d1:, None])[..., 0]
    res = member * (y - coeffs @ design.T)
    return coeffs + (pinv @ (res @ design)[..., None])[..., 0]


def fit_max_affine(points: np.ndarray, values: np.ndarray, n_segments: int,
                   restarts: int = 20, seed: int = 0,
                   warm_start: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Least-squares max-affine fit by alternating assignment and refit.

    ``points`` is (n, dim); returns ``(coeffs, rmse)`` where ``coeffs``
    is (n_segments, dim + 1) with the intercept last.  Each restart
    alternates (i) assign every point to its active segment, (ii) refit
    each segment on its assigned points, keeping the best objective seen;
    the recorded objective is therefore non-increasing.  ``warm_start``
    adds one restart initialized from existing segment coefficients
    (padded by duplication when it has fewer rows).  The first restart
    with the least objective wins, the warm start before the others.

    The restarts advance together, ``_FIT_BLOCK // n`` at a time.  A
    round is one product for every prediction, one assignment and one
    batched least-squares solve (``_segment_lstsq``) for every (restart,
    segment) pair, and a restart that has stopped leaves the batch.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    y = np.asarray(values, dtype=float)
    n, dim = pts.shape
    k, d1 = n_segments, dim + 1
    if k < 1:
        raise LinearizationError(f"need at least 1 segment, got {k}")
    if n < 4 * k:
        raise LinearizationError(
            f"grid of {n} points too sparse for {k} segments "
            f"(need >= {4 * k})")
    if restarts < 0:
        raise LinearizationError(f"restarts must be >= 0, got {restarts}")
    design = np.hstack([pts, np.ones((n, 1))])
    moments = np.hstack([(design[:, :, None] * design[:, None, :])
                         .reshape(n, d1 * d1), design * y[:, None]])
    segment = np.arange(k)[:, None]
    rng = np.random.default_rng(seed)

    def predict(coeffs: np.ndarray):
        """Segment values, their max and the objective of each restart."""
        pred = coeffs @ design.T
        top = pred.max(axis=1)
        res = top - y
        return pred, top, np.einsum("ij,ij->i", res, res)

    def refit(pred: np.ndarray, top: np.ndarray) -> np.ndarray:
        # each point goes to its first segment with the top value
        member = np.empty(pred.shape)
        free = np.ones(top.shape, dtype=bool)
        for s in range(k):
            hit = free & (pred[:, s] == top)
            member[:, s] = hit
            free &= ~hit
        # dead or degenerate segment: reseed on its restart's worst-fit
        # points
        r, s = np.nonzero(member.sum(axis=2) < d1)
        worst = np.argsort(np.abs(top[r] - y), axis=1)[:, -d1:]
        member[r, s] = 0.0
        member[r[:, None], s[:, None], worst] = 1.0
        return _segment_lstsq(design, y, moments, member)

    def partitions(n_fit: int) -> np.ndarray:
        """Random partition inits: each segment fit on a random subset."""
        assign = np.empty((n_fit, n), dtype=np.intp)
        reseed = []   # (restart, segment, points) of each sparse segment
        for r in range(n_fit):
            assign[r] = rng.integers(0, k, n)
            sizes = np.bincount(assign[r], minlength=k)
            for s in np.flatnonzero(sizes < d1):
                reseed.append((r, s, rng.choice(n, d1, replace=False)))
        member = (assign[:, None, :] == segment).astype(float)
        for r, s, sel in reseed:
            member[r, s] = 0.0
            member[r, s, sel] = 1.0
        return _segment_lstsq(design, y, moments, member)

    def descend(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rounds until each restart stops; its last accepted fit."""
        pred, top, obj = predict(coeffs)
        obj_out = obj.copy()
        running = np.arange(len(coeffs))
        for _ in range(_FIT_MAX_ITER):
            if len(running) == 0:
                break
            new = refit(pred, top)
            pred, top, new_obj = predict(new)
            finite = np.isfinite(new_obj)
            go_on = finite & ~(new_obj >= obj - 1e-14)
            take = go_on | (finite & (new_obj < obj))
            coeffs[running[take]] = new[take]
            obj_out[running[take]] = new_obj[take]
            running = running[go_on]
            pred, top, obj = pred[go_on], top[go_on], new_obj[go_on]
        return coeffs, obj_out

    fits = []
    if warm_start is not None:
        ws = np.asarray(warm_start, dtype=float)
        if ws.shape[0] < k:
            pad = ws[rng.integers(0, ws.shape[0], k - ws.shape[0])]
            ws = np.vstack([ws, pad])
        fits.append(descend(ws[None, :k].copy()))
    per_block = max(1, _FIT_BLOCK // n)
    for lo in range(0, restarts, per_block):
        fits.append(descend(partitions(min(per_block, restarts - lo))))
    # NaN and inf never win
    obj = np.concatenate([o for _, o in fits]) if fits else np.empty(0)
    obj = np.where(obj < math.inf, obj, math.inf)
    if not np.any(obj < math.inf):
        raise LinearizationError("max-affine fit failed on every restart")
    best = int(np.argmin(obj))
    coeffs = np.concatenate([c for c, _ in fits])
    return coeffs[best].copy(), math.sqrt(float(obj[best]) / n)


def nadir_grid(cloud: CommitmentCloud, n_per_dim: int) -> np.ndarray:
    """Regular (r_g, f_g, m) evaluation grid over the cloud's extent.

    Each axis runs from the smallest value among patterns with some
    inertia online to the largest value in the cloud.
    """
    pos = cloud.m > 0
    axes = [np.linspace(v[pos].min(), v.max(), n_per_dim)
            for v in (cloud.r_g, cloud.f_g, cloud.m)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return grid.reshape(-1, 3)


def fit_pwl(nadir_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
            grid: np.ndarray, n_segments: int, restarts: int = 20,
            seed: int = 0) -> PwlFit:
    """Max-affine fit of the nadir surface over a (r_g, f_g, m) grid.

    ``nadir_fn`` must evaluate the nadir at fixed aggregate damping, in
    Hz, vectorized over its three arguments.
    """
    grid = np.asarray(grid, dtype=float)
    y = np.asarray(nadir_fn(grid[:, 0], grid[:, 1], grid[:, 2]), dtype=float)
    coeffs, rmse = fit_max_affine(grid, y, n_segments, restarts=restarts,
                                  seed=seed)
    return PwlFit(coeffs=coeffs, rmse=rmse)


def make_nadir_fn(d: float, t_turbine: float, delta_p: float,
                  limits: FrequencyLimits, m_v: float):
    """Nadir surface (r_g, f_g, m) -> Hz at fixed damping, for PWL fitting."""
    def fn(r_g, f_g, m):
        return nadir_closed_form(np.asarray(m, dtype=float) + m_v, d,
                                 r_g, f_g, t_turbine, delta_p, limits.f_base)
    return fn
