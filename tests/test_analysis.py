"""Condition sums, the generalized Dawson transform, classification, envelopes.

Closed forms on the boundary scale t_k = ln k anchor everything: lambda = 1
gives S = 1 exactly and lambda = 2 gives (n+1)/(2n), both provable by
telescoping the exponentials into ratios k/n. The Dawson transform is checked
against its p = 1 closed form and an independent high-precision quadrature
(mpmath).
"""

import math

import mpmath
import numpy as np
import pytest

from growpop import (
    AsymptoticTimes,
    ClassificationError,
    EnvelopeSpec,
    ExplicitJumps,
    ExplicitSchedule,
    HarmonicScaled,
    PowerExponentialSchedule,
    ScheduleClass,
    asymptotic_injection_times,
    classify_schedule,
    condition_sum,
    dawson_f,
    envelope_bound,
    fit_decay_exponent,
    consensus_rate_bounds,
)

RNG = np.random.default_rng(3141592)

CLOSED_FORM_TOL = 1e-12


class TestConditionSum:
    @pytest.mark.parametrize("n", [1, 10, 1000, 1_000_000])
    def test_boundary_rate_one_is_exactly_one(self, n):
        s = condition_sum(1.0, asymptotic_injection_times(1.0), n)
        assert abs(s - 1.0) <= CLOSED_FORM_TOL

    @pytest.mark.parametrize("n", [2, 10, 1000, 1_000_000])
    def test_boundary_rate_two_closed_form(self, n):
        s = condition_sum(2.0, asymptotic_injection_times(1.0), n)
        assert abs(s - (n + 1) / (2.0 * n)) <= CLOSED_FORM_TOL

    def test_single_term(self):
        assert condition_sum(3.0, [5.0], 1) == 1.0

    def test_decreasing_in_rate(self):
        times = asymptotic_injection_times(0.5)
        vals = [condition_sum(lam, times, 500) for lam in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_translation_invariant_exactly_on_integer_times(self):
        times = np.cumsum(RNG.integers(1, 5, size=64)).astype(float)
        shifted = times + 7.0  # integer-valued floats subtract exactly
        s0 = condition_sum(0.8, times, 64)
        s1 = condition_sum(0.8, shifted, 64)
        assert s0 == s1

    def test_translation_invariant_generically(self):
        times = np.sort(RNG.uniform(0.0, 30.0, size=128))
        s0 = condition_sum(1.3, times, 128)
        s1 = condition_sum(1.3, times + 0.371, 128)
        np.testing.assert_allclose(s1, s0, rtol=1e-12)

    def test_accepts_every_times_source(self):
        n, alpha, n0 = 50, 0.5, 3
        sched = PowerExponentialSchedule(alpha=alpha, n0=n0)
        as_callable = lambda k: math.log(n0 + k) ** (1.0 / alpha)
        as_seq = [math.log(n0 + k) ** (1.0 / alpha) for k in range(1, n + 1)]
        vals = [condition_sum(1.0, src, n) for src in (sched, as_callable, as_seq)]
        np.testing.assert_allclose(vals, vals[0], rtol=1e-14)

    def test_explicit_schedule_source(self):
        sched = ExplicitSchedule(n0=1, times=(1.0, 2.0, 3.0, 4.0))
        s = condition_sum(1.0, sched, 3)
        expect = sum(math.exp(-(3.0 - k)) / k for k in (1.0, 2.0, 3.0))
        np.testing.assert_allclose(s, expect, rtol=1e-14)

    def test_no_overflow_for_huge_times(self):
        # exponents are shifted to be nonpositive; times in the thousands are fine
        times = np.linspace(0.0, 50_000.0, 100)
        s = condition_sum(2.0, times, 100)
        assert 0.0 < s < 1.0 / 100.0 + 1e-12

    def test_boundary_limit_helper(self):
        # the sums approach 1/lambda on the boundary scale
        times = asymptotic_injection_times(1.0)
        for lam in (0.5, 1.5):
            gap3 = abs(condition_sum(lam, times, 10**3) - 1.0 / lam)
            gap6 = abs(condition_sum(lam, times, 10**6) - 1.0 / lam)
            assert gap6 < gap3
            assert gap6 < 0.01

    def test_monotone_trends_by_class(self):
        # alpha < 1: sums die; alpha > 1: sums stabilize away from zero
        dying = [condition_sum(1.0, asymptotic_injection_times(0.5), n)
                 for n in (10**3, 10**4, 10**5, 10**6)]
        assert all(b < a for a, b in zip(dying, dying[1:]))
        stable = [condition_sum(1.0, asymptotic_injection_times(2.0), n)
                  for n in (10**3, 10**4, 10**5, 10**6)]
        assert stable[-1] > 0.5 * stable[0] > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            condition_sum(0.0, [1.0], 1)
        with pytest.raises(ValueError):
            condition_sum(1.0, [1.0], 0)
        with pytest.raises(ValueError):
            condition_sum(1.0, [2.0, 1.0], 2)  # decreasing times


class TestDawsonTransform:
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 5.0, 20.0, 50.0])
    @pytest.mark.parametrize("rate", [0.5, 1.0, 3.0])
    def test_p_one_closed_form(self, x, rate):
        expect = (1.0 - math.exp(-rate * x)) / rate
        np.testing.assert_allclose(dawson_f(1.0, rate, x), expect, rtol=1e-10)

    @pytest.mark.parametrize("p,rate,x", [
        (2.0, 1.0, 0.5), (2.0, 1.0, 2.0), (2.0, 1.0, 10.0), (2.0, 1.0, 30.0),
        (1.5, 0.7, 5.0), (3.0, 2.0, 4.0), (0.5, 1.0, 9.0),
    ])
    def test_against_high_precision_quadrature(self, p, rate, x):
        with mpmath.workdps(40):
            xp = mpmath.mpf(x) ** p
            ref = mpmath.quad(
                lambda t: mpmath.exp(rate * (t**p - xp)), [0, x])
        np.testing.assert_allclose(dawson_f(p, rate, x), float(ref), rtol=1e-8)

    def test_zero_argument(self):
        assert dawson_f(2.0, 1.0, 0.0) == 0.0

    def test_vanishes_for_p_above_one(self):
        vals = [dawson_f(2.0, 1.0, x) for x in (10.0, 20.0, 30.0, 40.0, 50.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.011

    def test_levels_off_for_p_below_one(self):
        # p < 1: F approaches no zero limit; it grows past the p = 1 plateau
        vals = [dawson_f(0.5, 1.0, x) for x in (10.0, 100.0, 400.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 1.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_large_x_asymptotics(self, p):
        x = 60.0
        ratio = dawson_f(p, 1.0, x) * (p * x ** (p - 1.0))
        assert abs(ratio - 1.0) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            dawson_f(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            dawson_f(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            dawson_f(1.0, 1.0, -1.0)


class TestClassification:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_subcritical_converges(self, alpha):
        assert classify_schedule(alpha, 0.5, 1.0) is ScheduleClass.CONVERGES_C1

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 3.0])
    def test_supercritical_fails(self, alpha):
        assert classify_schedule(alpha, 0.5, 1.0) is ScheduleClass.FAILS_C2

    def test_boundary(self):
        assert classify_schedule(1.0, 0.5, 2.0) is ScheduleClass.EXPONENTIAL_BOUNDARY

    def test_enum_values_are_stable_strings(self):
        assert ScheduleClass.CONVERGES_C1.value == "converges_c1"
        assert ScheduleClass.FAILS_C2.value == "fails_c2"
        assert ScheduleClass.EXPONENTIAL_BOUNDARY.value == "exponential_boundary"

    def test_small_n_max_rejected(self):
        with pytest.raises(ValueError):
            classify_schedule(0.5, 0.5, 1.0, n_max=1000)

    def test_bad_rates_rejected(self):
        with pytest.raises(ValueError):
            classify_schedule(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            classify_schedule(0.5, 2.0, 1.0)  # star above max

    def test_classification_error_exists(self):
        assert issubclass(ClassificationError, RuntimeError)


class TestEnvelope:
    def recursion(self, lam, times, y0, jumps):
        y, t_prev = y0, 0.0
        out = []
        for t, g in zip(times, jumps):
            y = y * math.exp(-lam * (t - t_prev)) + g
            t_prev = t
            out.append(y)
        return out

    def test_equality_case_matches_recursion(self):
        lam, n = 0.9, 60
        times = np.sort(RNG.uniform(0.1, 20.0, size=n))
        bound_fn = HarmonicScaled(c=0.7)
        g = bound_fn.values(n)
        y = self.recursion(lam, times, 2.0, g)
        spec = EnvelopeSpec(decay_rate=lam, y0=2.0, jump_bound=bound_fn)
        np.testing.assert_allclose(envelope_bound(spec, times, n), y[-1], rtol=1e-12)

    def test_dominates_any_compliant_sequence(self):
        lam, n = 1.2, 80
        times = np.sort(RNG.uniform(0.1, 15.0, size=n))
        g = HarmonicScaled(c=1.0).values(n)
        jumps = g * RNG.uniform(0.0, 1.0, size=n)  # |jumps| <= g
        y = self.recursion(lam, times, 0.5, jumps)
        spec = EnvelopeSpec(decay_rate=lam, y0=0.5, jump_bound=HarmonicScaled(c=1.0))
        for k in (10, 40, 80):
            bound = envelope_bound(spec, times, k)
            assert y[k - 1] <= bound * (1.0 + 1e-12)

    def test_reverse_envelope_lower_bounds(self):
        lam, n = 0.7, 50
        times = np.sort(RNG.uniform(0.1, 10.0, size=n))
        g = np.full(n, -0.05)  # lower bound on the jumps, negative is allowed
        jumps = g + RNG.uniform(0.0, 0.2, size=n)  # jumps >= g
        y = self.recursion(lam, times, 1.0, jumps)
        spec = EnvelopeSpec(decay_rate=lam, y0=1.0,
                            jump_bound=ExplicitJumps(values=tuple(g)),
                            reverse=True)
        for k in (5, 25, 50):
            bound = envelope_bound(spec, times, k)
            assert y[k - 1] >= bound - 1e-12

    def test_upper_envelope_rejects_negative_bounds(self):
        spec = EnvelopeSpec(decay_rate=1.0, y0=0.0,
                            jump_bound=ExplicitJumps(values=(-0.1, 0.2)))
        with pytest.raises(ValueError, match="nonnegative"):
            envelope_bound(spec, [1.0, 2.0], 2)

    def test_callable_jump_bound(self):
        spec = EnvelopeSpec(decay_rate=1.0, y0=0.0, jump_bound=lambda k: 1.0 / k**2)
        times = AsymptoticTimes(alpha=1.0)
        val = envelope_bound(spec, times, 100)
        # on the boundary scale: sum (1/k^2) (k/n) = H-ish / n
        expect = sum((1.0 / k**2) * (k / 100.0) for k in range(1, 101))
        np.testing.assert_allclose(val, expect, rtol=1e-12)

    def test_schedule_times_source(self):
        sched = PowerExponentialSchedule(alpha=0.5, n0=2)
        spec = EnvelopeSpec(decay_rate=0.5, y0=1.0, jump_bound=HarmonicScaled(c=1.0))
        val = envelope_bound(spec, sched, 40)
        assert 0.0 < val < 1.0 + sum(1.0 / k for k in range(1, 41))


class TestDecayFit:
    def test_recovers_exact_power_law(self):
        t = np.geomspace(1.0, 100.0, 60)
        series = np.column_stack([t, 3.0 * t**-1.5])
        fit = fit_decay_exponent(series, window=0.5)
        np.testing.assert_allclose(fit.beta_hat, 1.5, rtol=1e-10)
        assert fit.r2 > 1.0 - 1e-12

    def test_constant_series_fits_zero(self):
        t = np.geomspace(1.0, 100.0, 30)
        fit = fit_decay_exponent(np.column_stack([t, np.full(30, 2.0)]), window=1.0)
        assert abs(fit.beta_hat) < 1e-12
        assert fit.r2 == 1.0

    def test_noisy_series_reports_imperfect_fit(self):
        t = np.geomspace(1.0, 1000.0, 200)
        v = t**-0.8 * np.exp(RNG.normal(0.0, 0.05, size=200))
        fit = fit_decay_exponent(np.column_stack([t, v]), window=0.8)
        assert abs(fit.beta_hat - 0.8) < 0.1
        assert fit.r2 < 1.0

    def test_window_needs_ten_points(self):
        t = np.geomspace(1.0, 10.0, 12)
        series = np.column_stack([t, t**-1.0])
        with pytest.raises(ValueError, match="10"):
            fit_decay_exponent(series, window=0.5)

    def test_rejects_nonpositive_values(self):
        t = np.geomspace(1.0, 10.0, 20)
        v = t**-1.0
        v[-1] = 0.0
        with pytest.raises(ValueError, match="nonpositive"):
            fit_decay_exponent(np.column_stack([t, v]), window=1.0)


class TestRateBounds:
    def test_half_alpha_window(self):
        rb = consensus_rate_bounds(0.5)
        assert rb.p == 2.0
        assert rb.beta_star_sup == 1.0
        assert rb.beta_sup == 0.5

    def test_windows_close_at_boundary(self):
        rb = consensus_rate_bounds(1.0)
        assert rb.beta_star_sup == 0.0
        assert rb.beta_sup == 0.0
        assert consensus_rate_bounds(1.5).beta_sup < 0.0

    def test_any_exponent_below_sup_scales_the_sums_to_zero(self):
        # (ln n)^beta* S(lambda, n) must still vanish for beta* < p - 1
        alpha, lam, beta_star = 0.5, 1.0, 0.5
        assert beta_star < consensus_rate_bounds(alpha).beta_star_sup
        times = asymptotic_injection_times(alpha)
        scaled = [math.log(n) ** beta_star * condition_sum(lam, times, n)
                  for n in (10**3, 10**4, 10**5, 10**6)]
        assert all(b < a for a, b in zip(scaled, scaled[1:]))
