from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfreq.freq_dynamics import (AggregateParams, FrequencyModelError,
                                    _rk4_transition, aggregate_params,
                                    check_limits, fleet_damping,
                                    frequency_metrics, nadir_closed_form,
                                    simulate_step_response)
from gridfreq.system import ConverterFleet, FrequencyLimits

from conftest import make_unit


def single_nuclear_agg():
    unit = make_unit(uid="n", p_max=400.0, inertia_h=4.5, gain_k=0.98,
                     turbine_fraction=0.25, droop=0.04)
    fleet = ConverterFleet(vsm_capacity=0.0, droop_capacity=0.0)
    return aggregate_params([unit], [True], fleet, t_turbine=7.0)


class TestAggregation:
    def test_single_unit_constants(self):
        agg = single_nuclear_agg()
        assert agg.m == pytest.approx(8.82, rel=1e-12)
        assert agg.r_g == pytest.approx(24.5, rel=1e-12)
        assert agg.f_g == pytest.approx(6.125, rel=1e-12)
        assert agg.m_v == 0.0
        assert agg.d == pytest.approx(0.6, rel=1e-12)

    def test_mixed_fleet_base_includes_converters(self):
        units = [make_unit(uid="a", p_max=300.0),
                 make_unit(uid="b", bus="n2", p_max=100.0)]
        fleet = ConverterFleet(vsm_capacity=80.0, droop_capacity=20.0)
        agg = aggregate_params(units, [True, True], fleet, 7.0)
        assert agg.s_base == 500.0
        assert agg.m_v == pytest.approx(2 * 6.0 * 1.0 * 80.0 / 500.0)

    def test_offline_unit_excluded_from_gains_not_base(self):
        units = [make_unit(uid="a", p_max=300.0),
                 make_unit(uid="b", p_max=100.0)]
        fleet = ConverterFleet(vsm_capacity=0.0, droop_capacity=0.0)
        both = aggregate_params(units, [True, True], fleet, 7.0)
        one = aggregate_params(units, [True, False], fleet, 7.0)
        assert one.s_base == both.s_base
        k_b = 100.0 * 1.1 / 400.0
        assert both.m - one.m == pytest.approx(2 * 7.0 * k_b)

    def test_d_override(self):
        units = [make_unit(uid="a", p_max=300.0),
                 make_unit(uid="b", p_max=100.0)]
        fleet = ConverterFleet(vsm_capacity=0.0, droop_capacity=0.0)
        agg = aggregate_params(units, [True, False], fleet, 7.0,
                               d_override=1.5)
        assert agg.d == 1.5
        # default damping follows the online set
        agg2 = aggregate_params(units, [True, False], fleet, 7.0)
        assert agg2.d == pytest.approx(0.6 * 300.0 / 400.0)

    def test_fleet_damping_counts_everything(self):
        units = [make_unit(uid="a", p_max=300.0)]
        fleet = ConverterFleet(vsm_capacity=100.0, droop_capacity=50.0)
        d = fleet_damping(units, fleet, 450.0)
        expected = (0.6 * 300 + 0.6 * 100 + (1.0 / 0.05) * 50) / 450.0
        assert d == pytest.approx(expected, rel=1e-12)

    def test_mask_length_mismatch(self):
        with pytest.raises(FrequencyModelError):
            aggregate_params([make_unit()], [True, False],
                             ConverterFleet(0.0, 0.0), 7.0)


class TestSecondOrder:
    def test_nonpositive_inertia_rejected(self, limits):
        agg = AggregateParams(m=0.0, m_v=0.0, d=0.6, r_g=20.0, f_g=5.0,
                              t_turbine=7.0, s_base=100.0)
        with pytest.raises(FrequencyModelError, match="inertia"):
            frequency_metrics(agg, 0.05, limits)
        agg = AggregateParams(m=8.0, m_v=0.0, d=-0.6, r_g=0.5, f_g=0.1,
                              t_turbine=7.0, s_base=100.0)
        with pytest.raises(FrequencyModelError, match="damping"):
            frequency_metrics(agg, 0.05, limits)


class TestMetrics:
    def test_frozen_metrics(self, limits):
        met = frequency_metrics(single_nuclear_agg(), 0.05, limits)
        assert met.rocof_hz_s == pytest.approx(0.2834467120181406,
                                               rel=1e-12)
        assert met.ss_dev_hz == pytest.approx(0.099601593625498, rel=1e-12)
        assert met.nadir_hz == pytest.approx(0.24311905901109543, rel=1e-9)

    def test_zero_disturbance(self, limits):
        met = frequency_metrics(single_nuclear_agg(), 0.0, limits)
        assert met.nadir_hz == met.rocof_hz_s == met.ss_dev_hz == 0.0

    def test_negative_disturbance_rejected(self, limits):
        with pytest.raises(FrequencyModelError):
            frequency_metrics(single_nuclear_agg(), -0.1, limits)

    def test_invalid_when_turbine_share_exceeds_droop(self, limits):
        agg = AggregateParams(m=8.0, m_v=0.0, d=0.6, r_g=5.0, f_g=6.0,
                              t_turbine=7.0, s_base=100.0)
        with pytest.raises(FrequencyModelError, match="invalid"):
            frequency_metrics(agg, 0.05, limits)

    @given(scale=st.floats(0.2, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_linearity_in_disturbance(self, scale):
        limits = FrequencyLimits()
        agg = single_nuclear_agg()
        base = frequency_metrics(agg, 0.02, limits)
        scaled = frequency_metrics(agg, 0.02 * scale, limits)
        assert scaled.nadir_hz == pytest.approx(base.nadir_hz * scale,
                                                rel=1e-9)
        assert scaled.rocof_hz_s == pytest.approx(base.rocof_hz_s * scale,
                                                  rel=1e-9)
        assert scaled.ss_dev_hz == pytest.approx(base.ss_dev_hz * scale,
                                                 rel=1e-9)

    def test_overdamped_branch_matches_simulation(self, limits):
        cases = [
            # heavy inertia with weak droop: monotone, the nadir is the
            # steady state, reached only after several minutes
            (AggregateParams(m=40.0, m_v=0.0, d=0.3, r_g=1.2, f_g=0.2,
                             t_turbine=7.0, s_base=100.0), 1.6666666666666667),
            # large turbine share: overshoots before settling
            (AggregateParams(m=2.0, m_v=0.0, d=0.5, r_g=10.0, f_g=9.0,
                             t_turbine=7.0, s_base=100.0), 0.259389),
        ]
        for agg, nadir in cases:
            met = frequency_metrics(agg, 0.05, limits)
            _, df = simulate_step_response(agg, 0.05, horizon_s=600.0)
            assert met.nadir_hz == pytest.approx(-df.min(), rel=1e-6)
            assert met.nadir_hz == pytest.approx(nadir, rel=1e-6)


# Criterion 3's parameter box (f_share is f_g / r_g), plus two boxes where
# every point is overdamped: a large turbine share overshoots, heavy
# inertia with weak droop settles monotonically.
CRITERION_3_BOX = dict(m=(4.0, 15.0), m_v=(0.0, 3.0), d=(0.3, 1.2),
                       r_g=(5.0, 30.0), f_share=(0.1, 0.4))
OVERSHOOT_BOX = dict(m=(1.0, 4.0), m_v=(0.0, 1.0), d=(0.3, 1.2),
                     r_g=(5.0, 30.0), f_share=(0.7, 0.95))
MONOTONE_BOX = dict(m=(40.0, 80.0), m_v=(0.0, 3.0), d=(0.2, 0.5),
                    r_g=(0.5, 1.2), f_share=(0.1, 0.4))


@st.composite
def aggregates(draw, box):
    v = {k: draw(st.floats(lo, hi)) for k, (lo, hi) in box.items()}
    return AggregateParams(m=v["m"], m_v=v["m_v"], d=v["d"], r_g=v["r_g"],
                           f_g=v["r_g"] * v["f_share"], t_turbine=7.0,
                           s_base=100.0)


def vectorized_nadir(agg, delta_p, limits):
    return float(nadir_closed_form(agg.m_eff, agg.d, agg.r_g, agg.f_g,
                                   agg.t_turbine, delta_p, limits.f_base))


class TestClosedFormAgreement:
    """Scalar metrics, the vectorized nadir and RK4 describe one model."""

    @given(agg=st.one_of(aggregates(CRITERION_3_BOX),
                         aggregates(OVERSHOOT_BOX),
                         aggregates(MONOTONE_BOX)),
           dp=st.floats(0.01, 0.1))
    @settings(max_examples=300, deadline=None)
    def test_scalar_matches_vectorized(self, agg, dp):
        limits = FrequencyLimits()
        met = frequency_metrics(agg, dp, limits)
        assert met.nadir_hz == pytest.approx(
            vectorized_nadir(agg, dp, limits), rel=1e-9)

    def test_both_match_simulation(self, limits):
        examples = [
            # underdamped, inside criterion 3's box
            AggregateParams(m=8.0, m_v=1.5, d=0.6, r_g=20.0, f_g=5.0,
                            t_turbine=7.0, s_base=100.0),
            # overdamped with an overshoot: large turbine share
            AggregateParams(m=2.5, m_v=0.5, d=0.8, r_g=12.0, f_g=10.0,
                            t_turbine=7.0, s_base=100.0),
            # overdamped and monotone: heavy inertia, weak droop
            AggregateParams(m=50.0, m_v=1.0, d=0.3, r_g=0.9, f_g=0.2,
                            t_turbine=7.0, s_base=100.0),
        ]
        for agg in examples:
            met = frequency_metrics(agg, 0.05, limits)
            # long enough for the slowest pole to settle
            ts, df = simulate_step_response(agg, 0.05, horizon_s=600.0)
            nadir, ss = -df.min(), -df[-1]
            rocof = -(df[1] - df[0]) / (ts[1] - ts[0])
            for value in (met.nadir_hz, vectorized_nadir(agg, 0.05, limits)):
                assert abs(value - nadir) / nadir < 0.01
            assert abs(met.rocof_hz_s - rocof) / rocof < 0.005
            assert abs(met.ss_dev_hz - ss) / ss < 0.001


class TestSimulator:
    def test_initial_slope_matches_rocof(self, limits):
        agg = single_nuclear_agg()
        met = frequency_metrics(agg, 0.05, limits)
        ts, df = simulate_step_response(agg, 0.05, dt=1e-4)
        slope = (df[1] - df[0]) / (ts[1] - ts[0])
        assert -slope == pytest.approx(met.rocof_hz_s, rel=1e-3)

    def test_tail_matches_steady_state(self, limits):
        agg = single_nuclear_agg()
        met = frequency_metrics(agg, 0.05, limits)
        _, df = simulate_step_response(agg, 0.05, horizon_s=60.0)
        assert -df[-1] == pytest.approx(met.ss_dev_hz, rel=1e-3)

    def test_zero_step_is_flat(self):
        ts, df = simulate_step_response(single_nuclear_agg(), 0.0)
        assert np.all(df == 0.0)
        assert len(ts) == len(df)

    def test_argument_validation(self):
        agg = single_nuclear_agg()
        with pytest.raises(FrequencyModelError):
            simulate_step_response(agg, 0.05, dt=0.0)
        with pytest.raises(FrequencyModelError):
            simulate_step_response(agg, 0.05, horizon_s=5.0)
        for t_turbine in (0.0, -7.0):
            bad = AggregateParams(m=8.0, m_v=0.0, d=0.6, r_g=20.0, f_g=5.0,
                                  t_turbine=t_turbine, s_base=100.0)
            with pytest.raises(FrequencyModelError, match="t_turbine"):
                simulate_step_response(bad, 0.05)

    def test_superposition(self):
        agg = single_nuclear_agg()
        _, df1 = simulate_step_response(agg, 0.02)
        _, df2 = simulate_step_response(agg, 0.04)
        assert np.allclose(2.0 * df1, df2, atol=1e-12)


def sequential_rk4(agg, delta_p, horizon_s, dt, f_base=50.0):
    """The per-step RK4 recurrence, one Python iteration per point.

    It runs in 40-digit decimal arithmetic from the float64 transition,
    so that it stands for the exact recurrence: run in float64 it drifts
    by up to 2e-12 of max|y| over 200,001 steps of 1e-4 s, more than the
    block scan does.
    """
    phi, gamma, c = _rk4_transition(agg, delta_p, dt)
    n = int(round(horizon_s / dt)) + 1
    y = np.empty(n)
    with localcontext() as ctx:
        ctx.prec = 40
        (p11, p12), (p21, p22) = [[Decimal(float(v)) for v in row]
                                  for row in phi]
        g1, g2 = (Decimal(float(v)) for v in gamma)
        c1, c2 = (Decimal(float(v)) for v in c)
        x1 = x2 = Decimal(0)
        for i in range(n):
            y[i] = c1 * x1 + c2 * x2
            x1, x2 = p11 * x1 + p12 * x2 + g1, p21 * x1 + p22 * x2 + g2
    return f_base * y


def criterion_3_draws(count):
    rng = np.random.default_rng(20240817)
    draws = []
    for _ in range(count):
        r_g = rng.uniform(5.0, 30.0)
        draws.append(AggregateParams(
            m=rng.uniform(4.0, 15.0), m_v=rng.uniform(0.0, 3.0),
            d=rng.uniform(0.3, 1.2), r_g=r_g,
            f_g=r_g * rng.uniform(0.1, 0.4), t_turbine=7.0, s_base=100.0))
    return draws


OVERSHOOT = AggregateParams(m=2.5, m_v=0.5, d=0.8, r_g=12.0, f_g=10.0,
                            t_turbine=7.0, s_base=100.0)
MONOTONE = AggregateParams(m=50.0, m_v=1.0, d=0.3, r_g=0.9, f_g=0.2,
                           t_turbine=7.0, s_base=100.0)


class TestBlockScan:
    """The block scan reproduces the per-step recurrence."""

    @pytest.mark.parametrize("agg, delta_p, horizon_s, dt", [
        # 20,001 points: 140 blocks of 142 and a partial one of 121
        *[pytest.param(agg, 0.05, 20.0, 1e-3, id=f"criterion-3-{k}")
          for k, agg in enumerate(criterion_3_draws(3))],
        pytest.param(OVERSHOOT, 0.05, 60.0, 1e-3, id="overshoot"),
        pytest.param(MONOTONE, 0.08, 60.0, 1e-3, id="monotone"),
        pytest.param(criterion_3_draws(1)[0], 0.05, 20.0, 1e-4, id="dt-1e-4"),
        # 201 points, fewer than 15**2
        pytest.param(MONOTONE, 0.05, 20.0, 0.1, id="short"),
    ])
    def test_matches_sequential(self, agg, delta_p, horizon_s, dt):
        ts, df = simulate_step_response(agg, delta_p, horizon_s=horizon_s,
                                        dt=dt)
        ref = sequential_rk4(agg, delta_p, horizon_s, dt)
        assert len(ts) == len(df) == len(ref)
        assert np.max(np.abs(df - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_zero_step_matches_sequential(self):
        _, df = simulate_step_response(OVERSHOOT, 0.0, horizon_s=20.0)
        assert np.array_equal(df, sequential_rk4(OVERSHOOT, 0.0, 20.0, 1e-3))


class TestLimitGaps:
    def test_signs(self, limits):
        met = frequency_metrics(single_nuclear_agg(), 0.05, limits)
        gaps = check_limits(met, limits)
        assert gaps.nadir == pytest.approx(met.nadir_hz / 0.4 - 1.0)
        assert gaps.rocof == pytest.approx(met.rocof_hz_s / 0.5 - 1.0)
        assert gaps.ss == pytest.approx(met.ss_dev_hz / 0.2 - 1.0)
        assert gaps.ok == (gaps.nadir <= 0 and gaps.rocof <= 0
                           and gaps.ss <= 0)

    def test_zero_disturbance_gaps_negative(self, limits):
        met = frequency_metrics(single_nuclear_agg(), 0.0, limits)
        gaps = check_limits(met, limits)
        assert gaps.nadir == gaps.rocof == gaps.ss == -1.0
