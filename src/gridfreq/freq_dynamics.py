"""Uniform (center-of-inertia) frequency response model.

Aggregates per-unit parameters into a single second-order model with a
turbine zero and evaluates the three post-contingency frequency metrics:
nadir, RoCoF and quasi-steady-state deviation.  This module owns the
per-unit coefficients every other layer uses and the one closed form of
the nadir.  A fixed-step RK4 integrator of the same model serves as an
independent numerical oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .system import ConverterFleet, FrequencyLimits, SynchronousUnit, s_base


class FrequencyModelError(ValueError):
    """Raised when the aggregate model is outside its validity region."""


@dataclass
class AggregateParams:
    """System-level constants feeding every frequency formula.

    ``m`` is the synchronous inertia, ``m_v`` the converter virtual
    inertia; every formula uses the effective sum ``m_eff = m + m_v``.
    """

    m: float
    m_v: float
    d: float
    r_g: float
    f_g: float
    t_turbine: float

    @property
    def m_eff(self) -> float:
        return self.m + self.m_v


@dataclass
class FrequencyWeights:
    """Per-unit coefficients of the aggregate constants on the common base.

    Entry ``i`` of each vector is what unit ``i`` adds to the aggregate
    when it is online; ``m_v`` and ``d`` do not depend on the commitment.
    """

    s_base: float
    m_w: np.ndarray    # inertia: 2 * inertia_h * k, k = p_max*gain_k/s_base
    r_w: np.ndarray    # droop: k / droop
    f_w: np.ndarray    # turbine: turbine_fraction * r_w
    m_v: float         # converter virtual inertia
    d: float           # full-fleet damping, see fleet_damping


@dataclass
class FrequencyMetrics:
    nadir_hz: float
    rocof_hz_s: float
    ss_dev_hz: float


@dataclass
class LimitGaps:
    """Relative constraint distances; gap <= 0 means the metric passes."""

    nadir: float
    rocof: float
    ss: float

    @property
    def ok(self) -> bool:
        return self.nadir <= 0 and self.rocof <= 0 and self.ss <= 0


def fleet_damping(units: list[SynchronousUnit], fleet: ConverterFleet,
                  s_base: float) -> float:
    """Constant aggregate damping computed from the full fleet.

    Damping and droop gains are prescribed within narrow ranges, so the
    aggregate damping is treated as commitment-independent throughout the
    scheduling pipeline.
    """
    d_sg = sum(u.damping * u.p_max for u in units)
    d_conv = (fleet.vsm_damping * fleet.vsm_capacity
              + (fleet.droop_gain / fleet.droop_droop) * fleet.droop_capacity)
    return (d_sg + d_conv) / s_base


def frequency_weights(units: list[SynchronousUnit],
                      fleet: ConverterFleet) -> FrequencyWeights:
    """Per-unit inertia, droop and turbine weights, ``m_v`` and damping."""
    base = s_base(units, fleet)
    if base <= 0:
        raise FrequencyModelError("no frequency response resources")
    k = np.array([u.p_max * u.gain_k / base for u in units])
    r_w = k / np.array([u.droop for u in units])
    return FrequencyWeights(
        s_base=base,
        m_w=2.0 * np.array([u.inertia_h for u in units]) * k,
        r_w=r_w,
        f_w=np.array([u.turbine_fraction for u in units]) * r_w,
        m_v=(2.0 * fleet.vsm_inertia_h * fleet.vsm_gain * fleet.vsm_capacity
             / base),
        d=fleet_damping(units, fleet, base))


def aggregate_params(units: list[SynchronousUnit],
                     online: list[bool] | np.ndarray,
                     fleet: ConverterFleet,
                     t_turbine: float,
                     d_override: float | None = None) -> AggregateParams:
    """Capacity-weighted aggregation of the online units plus converters.

    ``d_override`` substitutes a precomputed constant damping (see
    :func:`fleet_damping`); by default damping follows the online set.
    """
    if len(online) != len(units):
        raise FrequencyModelError("online mask length does not match units")
    w = frequency_weights(units, fleet)
    on = np.asarray(online, dtype=bool)
    d = d_override
    if d is None:
        d = fleet_damping([u for u, o in zip(units, on) if o], fleet,
                          w.s_base)
    return AggregateParams(m=float(w.m_w[on].sum()), m_v=w.m_v, d=d,
                           r_g=float(w.r_w[on].sum()),
                           f_g=float(w.f_w[on].sum()),
                           t_turbine=t_turbine)


def nadir_closed_form(m_eff, d, r_g, f_g, t, delta_p, f_base):
    """Vectorized nadir magnitude in Hz; inf where the model degenerates.

    The nadir is the largest frequency deviation over t >= 0.
    Underdamped points use the oscillatory closed form; overdamped points
    (real poles s1, s2) use the stationary point of
    K0 + K1 exp(s1 t) + K2 exp(s2 t) at
    t_m = ln((1 + s2 T)/(1 + s1 T)) / (s1 - s2), falling back to the
    steady-state deviation when the response is monotone.  The
    square-root amplitude is clamped at zero so the surface extends
    continuously onto r_g < f_g grid corners.
    """
    m_eff = np.asarray(m_eff, dtype=float)
    d = np.broadcast_to(np.asarray(d, dtype=float), m_eff.shape).copy()
    r_g = np.asarray(r_g, dtype=float)
    f_g = np.asarray(f_g, dtype=float)
    out = np.full(m_eff.shape, np.inf)
    dr = d + r_g
    valid = (m_eff > 0) & (dr > 0)
    if not np.any(valid):
        return out
    me, dd, rr, ff = m_eff[valid], d[valid], r_g[valid], f_g[valid]
    drv = dd + rr
    wn = np.sqrt(drv / (me * t))
    zeta = (me + t * (dd + ff)) / (2.0 * np.sqrt(me * t * drv))
    ss = f_base * delta_p / drv
    nad = ss.copy()
    under = zeta < 1.0
    if np.any(under):
        wd = wn[under] * np.sqrt(1.0 - zeta[under] ** 2)
        t_m = np.arctan2(wd * t, zeta[under] * wn[under] * t - 1.0) / wd
        amp = np.sqrt(np.maximum(t * (rr[under] - ff[under]), 0.0)
                      / me[under])
        nad[under] = ss[under] * (1.0 + amp
                                  * np.exp(-zeta[under] * wn[under] * t_m))
    over = ~under
    if np.any(over):
        with np.errstate(divide="ignore", invalid="ignore"):
            zo, wo = zeta[over], wn[over]
            disc = wo * np.sqrt(zo * zo - 1.0)
            s1 = -zo * wo + disc
            s2 = -zo * wo - disc
            ratio = (1.0 + s2 * t) / (1.0 + s1 * t)
            t_m = np.where(ratio > 0, np.log(ratio) / (s1 - s2), np.nan)
            k1 = (1.0 + s1 * t) / (s1 * (s1 - s2)) / (me[over] * t)
            k2 = (1.0 + s2 * t) / (s2 * (s2 - s1)) / (me[over] * t)
            dev = (1.0 / drv[over] + k1 * np.exp(s1 * t_m)
                   + k2 * np.exp(s2 * t_m)) * f_base * delta_p
            monotone = ~(np.isfinite(t_m) & (t_m > 0))
            nad[over] = np.where(monotone, ss[over], np.abs(dev))
    out[valid] = nad
    return out


def frequency_metrics(agg: AggregateParams, delta_p: float,
                      limits: FrequencyLimits) -> FrequencyMetrics:
    """Nadir, RoCoF and quasi-steady-state deviation in SI units."""
    if delta_p < 0:
        raise FrequencyModelError("delta_p must be >= 0")
    if delta_p == 0:
        return FrequencyMetrics(0.0, 0.0, 0.0)
    m_eff, d, r_g, f_g = agg.m_eff, agg.d, agg.r_g, agg.f_g
    if r_g < f_g:
        raise FrequencyModelError(
            "nadir expression invalid: r_g < f_g gives a negative "
            "square-root argument")
    if m_eff <= 0:
        raise FrequencyModelError("nonpositive effective inertia")
    if d + r_g <= 0:
        raise FrequencyModelError("nonpositive aggregate damping plus droop")
    f_b = limits.f_base
    nadir = float(nadir_closed_form(m_eff, d, r_g, f_g, agg.t_turbine,
                                    delta_p, f_b))
    return FrequencyMetrics(nadir_hz=nadir, rocof_hz_s=f_b * delta_p / m_eff,
                            ss_dev_hz=f_b * delta_p / (d + r_g))


def _rk4_transition(agg: AggregateParams, delta_p: float, dt: float
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One RK4 step of the model as ``x+ = phi x + gamma``, ``y = c x``.

    Controllable canonical form: x' = A x + B u with u = -delta_p and
    y = (1/(m_eff*t)) * (x1 + t*x2).  For x' = A x + b the classical RK4
    step is the truncated matrix-exponential series below.
    """
    m_eff, d, r_g, t = agg.m_eff, agg.d, agg.r_g, agg.t_turbine
    if m_eff <= 0:
        raise FrequencyModelError("nonpositive effective inertia")
    if t <= 0:
        raise FrequencyModelError("t_turbine must be > 0")
    wn2 = (d + r_g) / (m_eff * t)
    if wn2 <= 0:
        raise FrequencyModelError("unstable parameterization: omega_n^2 <= 0")
    two_zeta_wn = (m_eff + t * (d + agg.f_g)) / (m_eff * t)

    a = np.array([[0.0, 1.0], [-wn2, -two_zeta_wn]])
    b = np.array([0.0, -delta_p])
    a2 = a @ a
    a3 = a2 @ a
    eye = np.eye(2)
    phi = eye + dt * a + dt**2 / 2 * a2 + dt**3 / 6 * a3 + dt**4 / 24 * a3 @ a
    gamma = (dt * eye + dt**2 / 2 * a + dt**3 / 6 * a2 + dt**4 / 24 * a3) @ b
    return phi, gamma, np.array([1.0 / (m_eff * t), 1.0 / m_eff])


def simulate_step_response(agg: AggregateParams, delta_p: float,
                           f_base: float, horizon_s: float = 60.0,
                           dt: float = 1e-3) -> tuple[np.ndarray, np.ndarray]:
    """RK4 integration of the second-order model under a -delta_p step.

    Returns ``(t_s, delta_f_hz)`` at nominal frequency ``f_base``
    (``FrequencyLimits.f_base``).  The model is the state-space
    realization of the transfer function with a turbine zero, so the
    initial slope equals the analytic RoCoF and the tail converges to the
    quasi-steady-state deviation.  For the constant-input LTI system the
    classical RK4 step reduces to a fixed 2x2 transition, x+ = phi x +
    gamma from x = 0.  It is applied in blocks of L = ceil(sqrt(n))
    steps: with x at a block start, the block's states are
    phi^j x + sum_{i<j} phi^i gamma for j < L, and the next block starts
    from phi^L x + sum_{i<L} phi^i gamma.  Both the powers and the
    partial sums come from the per-step recurrence, and every product is
    written out elementwise, so the result does not depend on a BLAS.
    """
    if dt <= 0:
        raise FrequencyModelError("dt must be > 0")
    if horizon_s < 20.0:
        raise FrequencyModelError("horizon_s must be >= 20 s")
    phi, gamma, c = _rk4_transition(agg, delta_p, dt)

    n = int(round(horizon_s / dt)) + 1
    ts = np.arange(n) * dt
    if delta_p == 0:
        return ts, np.zeros(n)

    p11, p12 = phi[0]
    p21, p22 = phi[1]
    g1, g2 = gamma
    c1, c2 = c
    block = math.ceil(math.sqrt(n))
    # row j: c phi^j (two columns) and c sum_{i<j} phi^i gamma
    cp = np.empty((block, 2))
    cs = np.empty(block)
    q11, q12, q21, q22 = 1.0, 0.0, 0.0, 1.0    # phi^j
    s1 = s2 = 0.0                              # sum_{i<j} phi^i gamma
    for j in range(block):
        cp[j] = c1 * q11 + c2 * q21, c1 * q12 + c2 * q22
        cs[j] = c1 * s1 + c2 * s2
        q11, q12, q21, q22 = (p11 * q11 + p12 * q21, p11 * q12 + p12 * q22,
                              p21 * q11 + p22 * q21, p21 * q12 + p22 * q22)
        s1, s2 = p11 * s1 + p12 * s2 + g1, p21 * s1 + p22 * s2 + g2
    # after the loop q is phi^L and s is sum_{i<L} phi^i gamma
    n_blocks = -(-n // block)
    starts = np.empty((n_blocks, 2))
    x1 = x2 = 0.0
    for k in range(n_blocks):
        starts[k] = x1, x2
        x1, x2 = q11 * x1 + q12 * x2 + s1, q21 * x1 + q22 * x2 + s2
    y = (starts[:, :1] * cp[:, 0] + starts[:, 1:] * cp[:, 1] + cs).ravel()
    return ts, f_base * y[:n]


def check_limits(metrics: FrequencyMetrics,
                 limits: FrequencyLimits) -> LimitGaps:
    """Relative gap of each metric to its threshold (<= 0 passes)."""
    return LimitGaps(
        nadir=metrics.nadir_hz / limits.nadir_lim - 1.0,
        rocof=metrics.rocof_hz_s / limits.rocof_lim - 1.0,
        ss=metrics.ss_dev_hz / limits.ss_lim - 1.0,
    )
