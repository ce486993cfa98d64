"""Envelope constants and geometric moments.

Oracles used here, in order of appearance:

* closed forms for integer geometric moments (1/p, (2-p)/p^2, ...);
* a direct 10^6-term series summation for fractional orders;
* the exact alpha=2 lower-envelope optimum (1/18)(8/9)^8 at
  A = sqrt(ln(9/8)), obtained by hand from d/du [(1-u)u^8] = 0;
* frozen high-precision values for the six standard constants.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locmst.bounds import (
    BoundsResult,
    InvalidPError,
    beta_low,
    beta_up,
    compute_bounds,
    delta_for,
    geometric_moment,
    geometric_moment_upper_bound,
    lower_constant_at,
    upper_constant_at,
)

# (alpha, eps1, eps2) -> (beta_low, beta_up), computed once at high grid
# resolution and frozen; the published reference values are the same
# numbers truncated to six figures.
GOLDEN = {
    (1.0, 1.0, 1.0): (0.07356326, 4.462556),
    (2.0, 1.0, 1.0): (0.02165246, 13.87716),
    (1.0, 0.5, 7.0 / 6.0): (0.03463632, 4.929122),
}


class TestGeometricMoment:
    @given(p=st.floats(min_value=1e-3, max_value=0.999))
    @settings(max_examples=200)
    def test_first_moment_closed_form(self, p):
        assert geometric_moment(1.0, p) == pytest.approx(1.0 / p, rel=1e-12)

    @given(p=st.floats(min_value=1e-3, max_value=0.999))
    @settings(max_examples=200)
    def test_second_moment_closed_form(self, p):
        want = (2.0 - p) / p**2
        assert geometric_moment(2.0, p) == pytest.approx(want, rel=1e-12)

    def test_third_moment_closed_form(self):
        for p in (0.05, 0.3, 0.77):
            want = (p**2 - 6 * p + 6) / p**3
            assert geometric_moment(3.0, p) == pytest.approx(want, rel=1e-12)

    def test_fractional_order_against_direct_series(self):
        p, r = 0.3, 1.5
        t = np.arange(1, 1_000_001, dtype=float)
        oracle = float(np.sum(t**r * p * (1 - p) ** (t - 1)))
        assert geometric_moment(r, p) == pytest.approx(oracle, rel=1e-9)

    def test_fractional_order_small_p_continuity(self):
        # the gamma shortcut below p=1e-4 must splice onto the series
        r = 2.5
        series = geometric_moment(r, 1.02e-4)
        shortcut = geometric_moment(r, 0.98e-4)
        scale = (1.02 / 0.98) ** r  # remove the p**-r trend before comparing
        assert shortcut * 1.0 == pytest.approx(series * scale, rel=2e-3)

    def test_series_beyond_the_float_range_raises_overflow_quietly(self):
        # t**r passes the float range before the sum converges; under the
        # suite's error::RuntimeWarning filter a numpy overflow warning
        # would escape as a RuntimeWarning instead
        with pytest.raises(OverflowError, match="leaves the float range"):
            geometric_moment(49.5, 1.0001e-4)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, 1.2, -0.1):
            with pytest.raises(InvalidPError):
                geometric_moment(1.5, bad)

    def test_upper_bound_formula(self):
        assert geometric_moment_upper_bound(3, 1.0) == pytest.approx(
            6.0 / (1 - math.e**-1) ** 3
        )


def test_moment_bound_grid():
    """E T^r <= r! / p^r for T geometric(p), exactly tight at r=1."""
    for theta in (0.1, 0.5, 1.0, 2.0, 5.0):
        p = 1.0 - math.exp(-theta)
        for r in range(1, 7):
            moment = geometric_moment(float(r), p)
            cap = geometric_moment_upper_bound(r, theta)
            assert moment <= cap * (1 + 1e-12), (r, theta)
        assert geometric_moment(1.0, p) == pytest.approx(
            geometric_moment_upper_bound(1, theta), rel=1e-12
        )


class TestEnvelopeConstants:
    def test_lower_constant_frozen_value(self):
        # (1/2)(1 - e^-1) e^-8 at A=1, alpha=1, unit rates
        want = 0.5 * (1 - math.exp(-1)) * math.exp(-8)
        got = lower_constant_at(1.0, 1.0, 1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(1.0602649e-4, rel=1e-6)

    def test_upper_constant_frozen_value(self):
        # (2A)(1 + E[T]/A^2) at A=1: 2 * (1 + 1/(1 - e^-1))
        want = 2.0 * (1.0 + 1.0 / (1 - math.exp(-1)))
        got = upper_constant_at(1.0, 1.0, 1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(5.1639534, rel=1e-7)

    def test_alpha2_lower_optimum_closed_form(self):
        # C1(A) = (1-u)u^8 / 2 with u = e^{-A^2}; maximum at u = 8/9
        A, value = beta_low(2.0, 1.0, 1.0)
        assert value == pytest.approx((8 / 9) ** 8 / 18, rel=1e-9)
        assert A == pytest.approx(math.sqrt(math.log(9 / 8)), rel=1e-5)

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_golden_constants(self, key):
        alpha, eps1, eps2 = key
        want_low, want_up = GOLDEN[key]
        A_low, got_low = beta_low(alpha, eps1, eps2)
        A_up, got_up = beta_up(alpha, eps1, eps2)
        assert got_low == pytest.approx(want_low, rel=1e-5)
        assert got_up == pytest.approx(want_up, rel=1e-5)
        assert 1e-3 <= A_low <= 10.0
        assert 1e-3 <= A_up <= 10.0

    def test_golden_section_refines_past_the_grid(self):
        # the optimum must beat both neighbours a grid step away
        for alpha in (1.0, 2.0):
            A, value = beta_low(alpha, 1.0, 1.0)
            for shift in (-1e-3, 1e-3):
                assert value >= lower_constant_at(A + shift, alpha, 1.0, 1.0)
            A, value = beta_up(alpha, 1.0, 1.0)
            for shift in (-1e-3, 1e-3):
                assert value <= upper_constant_at(A + shift, alpha, 1.0, 1.0)

    def test_beta_low_below_beta_up(self):
        for alpha in (0.5, 1.0, 1.5, 2.0, 3.0):
            _, lo = beta_low(alpha, 1.0, 1.0)
            _, up = beta_up(alpha, 1.0, 1.0)
            assert 0 < lo < up

    def test_delta_switches_at_alpha_one(self):
        assert delta_for(0.5, 0.3, 0.9) == 0.3
        assert delta_for(1.0, 0.3, 0.9) == 0.3
        assert delta_for(1.0001, 0.3, 0.9) == 0.9
        assert delta_for(2.0, 0.3, 0.9) == 0.9


class TestComputeBounds:
    def test_result_fields_and_delta(self):
        r = compute_bounds(1.5, 0.4, 0.8, 0.9, 1.1)
        assert isinstance(r, BoundsResult)
        assert r.alpha == 1.5 and r.c1 == 0.9 and r.c2 == 1.1
        assert r.eps1 == 0.4 and r.eps2 == 0.8  # delta_for picks eps2 here
        assert r.beta_low < r.beta_up

    def test_bracket_at_ten_thousand(self):
        r = compute_bounds(1.0, 1.0, 1.0)
        lo, hi = r.bracket(10_000)
        assert lo == pytest.approx(7.356326, rel=1e-5)
        assert hi == pytest.approx(446.2556, rel=1e-5)

    def test_bracket_scales_with_band(self):
        base = compute_bounds(2.0, 1.0, 1.0, 1.0, 1.0)
        banded = compute_bounds(2.0, 1.0, 1.0, 0.5, 2.0)
        n = 4096
        lo0, hi0 = base.bracket(n)
        lo1, hi1 = banded.bracket(n)
        assert lo1 == pytest.approx(lo0 * 0.25, rel=1e-12)
        assert hi1 == pytest.approx(hi0 * 4.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_bounds(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            compute_bounds(1.0, -0.5, 1.0)
        with pytest.raises(ValueError):
            compute_bounds(1.0, 2.0, 1.0)  # eps1 > eps2

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_refuses_alpha_not_finite(self, alpha):
        with pytest.raises(ValueError, match="positive and finite"):
            compute_bounds(alpha)

    @pytest.mark.parametrize("alpha", [49.5, 60.0, 100.0, 100.5, 200.0, 400.0])
    def test_refuses_alpha_beyond_the_float_range(self, monkeypatch, alpha):
        # a moment series that overflows, an underflow to zero, an integer
        # too large for a float and a float power that overflows; none may
        # escape as a bare traceback or a numpy warning, and each is found
        # at the check's grid points, before any optimization
        monkeypatch.setattr("locmst.bounds._optimize",
                            lambda *args: pytest.fail("optimized a refused alpha"))
        with pytest.raises(ValueError, match="beyond the float range"):
            compute_bounds(alpha)
