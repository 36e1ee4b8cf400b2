"""Condition sums, the generalized Dawson transform, classification, envelopes.

Closed forms on the boundary scale t_k = ln k anchor everything: lambda = 1
gives S = 1 exactly and lambda = 2 gives (n+1)/(2n), both provable by
telescoping the exponentials into ratios k/n. The Dawson transform is checked
against its p = 1 closed form, an independent high-precision quadrature and
the confluent hypergeometric function it equals (both mpmath).
"""

import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    consensus_rate_bounds,
)
from growpop import analysis
from growpop.analysis import _condition_sums

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
        assert condition_sum(3.0, ExplicitSchedule(n0=1, times=(5.0,)), 1) == 1.0

    def test_decreasing_in_rate(self):
        times = asymptotic_injection_times(0.5)
        vals = [condition_sum(lam, times, 500) for lam in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_translation_invariant_exactly_on_integer_times(self):
        times = np.cumsum(RNG.integers(1, 5, size=64)).astype(float)
        shifted = times + 7.0  # integer-valued floats subtract exactly
        s0 = condition_sum(0.8, ExplicitSchedule(n0=1, times=times), 64)
        s1 = condition_sum(0.8, ExplicitSchedule(n0=1, times=shifted), 64)
        assert s0 == s1

    def test_translation_invariant_generically(self):
        times = np.sort(RNG.uniform(0.0, 30.0, size=128))
        s0 = condition_sum(1.3, ExplicitSchedule(n0=1, times=times), 128)
        s1 = condition_sum(1.3, ExplicitSchedule(n0=1, times=times + 0.371), 128)
        np.testing.assert_allclose(s1, s0, rtol=1e-12)

    def test_accepts_every_times_source(self):
        n, alpha, n0 = 50, 0.5, 3
        sched = PowerExponentialSchedule(alpha=alpha, n0=n0)
        # the same times from an independent formula, as an explicit schedule
        as_seq = [math.log(n0 + k) ** (1.0 / alpha) for k in range(1, n + 1)]
        explicit = ExplicitSchedule(n0=n0, times=as_seq)
        vals = [condition_sum(1.0, src, n) for src in (sched, explicit)]
        np.testing.assert_allclose(vals, vals[0], rtol=1e-14)

    @pytest.mark.parametrize("times", [lambda k: math.log(k), "abc", object(),
                                       [1.0, 2.0, 3.0, 4.0, 5.0]])
    def test_rejects_other_times_sources(self, times):
        # a list of times is an ExplicitSchedule, which checks them when it is built
        with pytest.raises(ValueError, match="growth schedule or an AsymptoticTimes scale"):
            condition_sum(1.0, times, 5)

    @pytest.mark.parametrize("times", [[True, 2.0], [0.0, np.bool_(True)], (0.0, False, 2.0),
                                       [[0.0], [True]], [np.array([0.0]), np.array([True])],
                                       np.array([False, True])])
    def test_rejects_bool_entries(self, times):
        # numpy would turn a bool among numbers into 1.0 or 0.0: neither the sums
        # nor an explicit schedule take them
        with pytest.raises(ValueError, match="growth schedule or an AsymptoticTimes scale"):
            condition_sum(1.0, times, 2)
        with pytest.raises(ValueError, match="times must be a real number"):
            ExplicitSchedule(n0=1, times=times)

    @pytest.mark.parametrize("times", [[[0.0, 1.0], [2.0, 3.0]], np.arange(4.0).reshape(2, 2),
                                       np.arange(4.0).reshape(4, 1), np.float64(1.0)])
    def test_rejects_times_that_are_not_one_dimensional(self, times):
        # flattened, a (2, 2) table would read as the four times t_1..t_4
        spec = EnvelopeSpec(decay_rate=1.0, y0=0.0, jump_bound=HarmonicScaled(c=1.0))
        for call in (lambda: condition_sum(1.0, times, 4), lambda: envelope_bound(spec, times, 4)):
            with pytest.raises(ValueError, match="growth schedule or an AsymptoticTimes scale"):
                call()
        with pytest.raises((TypeError, ValueError)):  # a scalar is not iterable
            ExplicitSchedule(n0=1, times=times)

    def test_explicit_schedule_source(self):
        sched = ExplicitSchedule(n0=1, times=(1.0, 2.0, 3.0, 4.0))
        s = condition_sum(1.0, sched, 3)
        expect = sum(math.exp(-(3.0 - k)) / k for k in (1.0, 2.0, 3.0))
        np.testing.assert_allclose(s, expect, rtol=1e-14)

    def test_no_overflow_for_huge_times(self):
        # exponents are shifted to be nonpositive; times in the thousands are fine
        times = ExplicitSchedule(n0=1, times=np.linspace(500.0, 50_000.0, 100))
        s = condition_sum(2.0, times, 100)
        assert 0.0 < s < 1.0 / 100.0 + 1e-12

    def test_no_overflow_for_negative_times(self):
        # no source holds a time below t_0 = 0, so the factor e^(-lam t_n) that
        # carries y0 is at most 1: at t_1 = 0 it carries y0 = 1e300 unchanged
        with pytest.raises(ValueError, match="> 0; offending entry 0"):
            ExplicitSchedule(n0=1, times=(-1000.0, -999.0))
        spec = EnvelopeSpec(decay_rate=1.0, y0=1e300, jump_bound=HarmonicScaled(c=0.0))
        assert envelope_bound(spec, AsymptoticTimes(1.0), 1) == 1e300

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
        times = ExplicitSchedule(n0=1, times=(1.0,))
        with pytest.raises(ValueError):
            condition_sum(0.0, times, 1)
        with pytest.raises(ValueError):
            condition_sum(1.0, times, 0)
        with pytest.raises(ValueError):
            condition_sum(1.0, times, 2)  # past the schedule's times
        with pytest.raises(ValueError):
            condition_sum(1.0, ExplicitSchedule(n0=1, times=(2.0, 1.0)), 2)  # decreasing times

    def test_numpy_integer_n(self):
        times = asymptotic_injection_times(1.0)
        assert condition_sum(1.0, times, np.int64(100)) == condition_sum(1.0, times, 100)
        for n in np.geomspace(10, 1000, 4).astype(int):  # numpy integers
            assert abs(condition_sum(2.0, times, n) - (n + 1) / (2.0 * n)) <= CLOSED_FORM_TOL

    @pytest.mark.parametrize("n", [True, np.bool_(True), 2.0, np.float64(2.0), "2", 0,
                                   np.int64(-1)])
    def test_n_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            condition_sum(1.0, AsymptoticTimes(1.0), n)


@st.composite
def sum_tables(draw):
    """Positive, strictly increasing times, a rate, and a strictly increasing ns."""
    size = draw(st.integers(1, 300))
    gaps = draw(st.lists(st.floats(1e-6, 2.0), min_size=size, max_size=size))
    times = draw(st.floats(0.0, 5.0)) + np.cumsum(gaps)
    lam = draw(st.floats(0.05, 5.0))
    ns = sorted(draw(st.sets(st.integers(1, size), min_size=1, max_size=12)))
    return times, lam, ns


class TestOnePassTable:
    @staticmethod
    def reference(lam, times, n):
        k = np.arange(1, n + 1, dtype=float)
        return math.fsum(np.exp(-lam * (times[n - 1] - times[:n]) - np.log(k)))

    @settings(max_examples=150, deadline=None)
    @given(sum_tables())
    def test_matches_per_n_exact_sums(self, case):
        times, lam, ns = case
        schedule = ExplicitSchedule(n0=1, times=times)
        (table,) = _condition_sums((lam,), schedule, ns, HarmonicScaled(1.0))
        assert table.shape == (len(ns),)
        for n, got in zip(ns, table):
            want = self.reference(lam, times, n)
            assert abs(got - want) <= 1e-13 * want, (n, got, want)
        single = condition_sum(lam, schedule, ns[-1])
        assert abs(single - want) <= 1e-13 * want, (single, want)

    @pytest.mark.parametrize("ns", [[3, 2], [2, 2], [1, 2, 2], [], [0, 2], [1, 5],
                                    [1.0, 2.0], [[1, 2]]])
    def test_rejects_bad_grids(self, ns):
        with pytest.raises(ValueError):
            _condition_sums((1.0,), ExplicitSchedule(n0=1, times=(0.25, 0.5, 1.0, 2.0)), ns,
                            HarmonicScaled(1.0))

    @pytest.mark.parametrize("times", [
        pytest.param(asymptotic_injection_times(0.5), id="alpha-0.5"),
        pytest.param(asymptotic_injection_times(1.0), id="alpha-1"),
        pytest.param(asymptotic_injection_times(1.5), id="alpha-1.5"),
        pytest.param(PowerExponentialSchedule(alpha=0.7, n0=3), id="schedule"),
        pytest.param(ExplicitSchedule(n0=1, times=np.cumsum(
            np.random.default_rng(11).uniform(0.0, 1e-3, size=100_000))), id="sequence"),
    ])
    @pytest.mark.parametrize("lam", [0.4, 1.0, 1.6])
    def test_condition_sum_is_the_harmonic_envelope(self, times, lam):
        spec = EnvelopeSpec(decay_rate=lam, y0=0.0, jump_bound=HarmonicScaled(c=1.0))
        for n in (1, 2, 10, 1000, 100_000):
            assert condition_sum(lam, times, n) == envelope_bound(spec, times, n), n

    def test_envelope_table_matches_each_envelope(self):
        # a carried table with y0 and explicit jumps against one pass per n
        n, rng = 400, np.random.default_rng(12)
        times = ExplicitSchedule(n0=1, times=np.sort(rng.uniform(0.0, 30.0, size=n)))
        g = rng.uniform(0.0, 1.0, size=n)
        spec = EnvelopeSpec(decay_rate=0.8, y0=1.5, jump_bound=ExplicitJumps(values=tuple(g)))
        ns = [1, 7, 50, 51, 399, 400]
        (table,) = _condition_sums((0.8,), times, ns, spec.jump_bound, 1.5)
        want = [envelope_bound(spec, times, k) for k in ns]
        np.testing.assert_allclose(table, want, rtol=1e-13, atol=1e-13 * np.abs(g).sum())

    def test_closed_forms_on_a_grid(self):
        times = asymptotic_injection_times(1.0)
        ns = np.unique(np.geomspace(10, 10**6, 12).astype(int))
        one, two = _condition_sums((1.0, 2.0), times, ns, HarmonicScaled(1.0))
        np.testing.assert_allclose(one, 1.0, rtol=0, atol=CLOSED_FORM_TOL)
        np.testing.assert_allclose(two, (ns + 1) / (2.0 * ns), rtol=0, atol=CLOSED_FORM_TOL)


C = analysis._CHUNK
CHUNK_EDGES = [C - 1, C, C + 1, 2 * C + 3]  # about the first chunk boundary, and in the third


def _chunk_sources():
    """Every kind of times source, at least 2C + 3 times long."""
    size = CHUNK_EDGES[-1]
    seq = 0.1 + np.cumsum(np.random.default_rng(21).uniform(1e-4, 1e-3, size=size))
    return [
        pytest.param(AsymptoticTimes(0.7), np.log(np.arange(1.0, size + 1)) ** (1 / 0.7),
                     id="AsymptoticTimes"),
        pytest.param(PowerExponentialSchedule(alpha=1.5, n0=3),
                     np.log(np.arange(4.0, size + 4)) ** (1 / 1.5), id="schedule"),
        pytest.param(ExplicitSchedule(n0=1, times=tuple(seq.tolist())), seq, id="explicit"),
    ]


def _chunk_bounds():
    """(bound, y0): both jump bounds."""
    values = np.random.default_rng(22).uniform(0.0, 1.0, size=CHUNK_EDGES[-1])
    return [
        pytest.param(HarmonicScaled(1.3), 0.0, id="harmonic"),
        pytest.param(ExplicitJumps(values=tuple(values.tolist())), 0.7, id="explicit"),
    ]


class TestChunkedPass:
    """The pass walks k in chunks of _CHUNK terms; every edge must be invisible."""

    @staticmethod
    def reference(lam, t, g, y0, n):
        """(exact sum of the rounded terms, sum of their absolute values) at n."""
        terms = g[:n] * np.exp(-lam * (t[n - 1] - t[:n]))
        head = y0 * math.exp(-lam * t[n - 1])
        return math.fsum([head, *terms.tolist()]), abs(head) + float(np.abs(terms).sum())

    @pytest.mark.parametrize("bound, y0", _chunk_bounds())
    @pytest.mark.parametrize("times, t", _chunk_sources())
    def test_streamed_table_matches_fsum_at_chunk_edges(self, times, t, bound, y0):
        lams = (0.4, 1.6)
        g = (1.3 / np.arange(1.0, t.size + 1) if isinstance(bound, HarmonicScaled)
             else np.array(bound.values))
        table = _condition_sums(lams, times, CHUNK_EDGES, bound, y0)
        for lam, row in zip(lams, table):
            spec = EnvelopeSpec(decay_rate=lam, y0=y0, jump_bound=bound)
            for n, got in zip(CHUNK_EDGES, row):
                want, scale = self.reference(lam, t, g, y0, n)
                single = envelope_bound(spec, times, n)
                assert abs(got - want) <= 1e-13 * scale, (lam, n, got, want)
                assert abs(single - want) <= 1e-13 * scale, (lam, n, single, want)

    @pytest.mark.parametrize("at", [C - 1, C, C + 100], ids=["chunk-end", "chunk-start",
                                                            "later-chunk"])
    @pytest.mark.parametrize("fault", ["dip", "drop", "nan"])
    @pytest.mark.parametrize("kind", ["list", "array"])
    def test_bad_times_raise_wherever_they_sit(self, at, fault, kind):
        # the sums take times from a schedule only, and an explicit one refuses
        # bad times when it is built, naming the entry wherever it sits
        t = np.linspace(0.1, 10.0, CHUNK_EDGES[-1])
        if fault == "dip":  # one time below its predecessor
            t[at] = t[at - 1] - 0.5
        elif fault == "drop":  # every later time far below the earlier ones
            t[at:] -= 1000.0
        else:
            t[at] = math.nan
        times = t.tolist() if kind == "list" else t
        want = ("times must be finite, got " if fault == "nan" else
                f"times must be strictly increasing and > 0; offending entry {at}:")
        with pytest.raises(ValueError, match=f"^{want}"):
            ExplicitSchedule(n0=1, times=times)

    def test_memory_is_bounded_in_n(self):
        import tracemalloc

        def peak(fn):
            fn()  # first call outside the trace: imports and caches
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def one_sum(n):
            return lambda: condition_sum(1.0, asymptotic_injection_times(1.0), n)

        def table(n):
            return lambda: analysis._conditions_table(0.5, (0.4, 1.6), n)

        for make in (one_sum, table):
            small, large = peak(make(10**6)), peak(make(4 * 10**6))
            assert small < 2 * 2**20 and large < 2 * 2**20, (make.__name__, small, large)
            # no buffer grows with n: the two peaks are within a chunk's bytes
            assert large <= small + 8 * C, (make.__name__, small, large)


_P_ONE_XS = [0.1, 0.5, 1.0, 5.0, 20.0, 50.0]
_P_ONE_RATES = [0.5, 1.0, 3.0]
_QUADRATURE_POINTS = [
    (2.0, 1.0, 0.5), (2.0, 1.0, 2.0), (2.0, 1.0, 10.0), (2.0, 1.0, 30.0),
    (1.5, 0.7, 5.0), (3.0, 2.0, 4.0), (0.5, 1.0, 9.0),
]


def _dawson_probes():
    """(p, rate, x) points on which dawson_f must round like the exact value.

    The points of the tests below; 200 seeded draws over p in [0.3, 4], rate in
    [0.1, 10] and x in [0.01, 316]; points with z = rate*x^p > 1e6; points at
    z = 39.9, 40 and 40.1, either side of the seam between the small- and
    large-z series; points with p < 1/40, where z can lie in (40, 1/p]; and
    one with p = 1e18, whose early terms are below rounding but whose later
    ones are not.
    """
    rng = np.random.default_rng(20_241_019)
    draws = zip(rng.uniform(0.3, 4.0, 200), rng.uniform(0.1, 10.0, 200),
                10.0 ** rng.uniform(-2.0, 2.5, 200))
    probes = [(1.0, rate, x) for rate in _P_ONE_RATES for x in _P_ONE_XS]
    probes += _QUADRATURE_POINTS
    probes += [(float(p), float(rate), float(x)) for p, rate, x in draws]
    probes += [(3.9, 6.24, 210.4), (2.0, 1.0, 1e4), (4.0, 0.5, 100.0), (0.3, 10.0, 1e22)]
    probes += [(p, rate, (z / rate) ** (1.0 / p)) for p in (0.3, 0.5, 1.0, 2.0, 4.0, 50.0)
               for rate in (0.1, 1.0) for z in (39.9, 40.0, 40.1)]
    probes += [(0.01, 50.0, 10.0), (0.01, 95.0, 100.0), (0.02, 45.0, 1e6), (1e18, 39.0, 1.0)]
    return probes


def _hyp1f1_reference(p, rate, x):
    """x M(1; 1 + 1/p; -rate x^p) at 50 digits, from the exact float inputs."""
    with mpmath.workdps(50):
        z = mpmath.mpf(rate) * mpmath.mpf(x) ** p
        return float(x * mpmath.hyp1f1(1, 1 + 1 / mpmath.mpf(p), -z))


def _scipy_modules_after(statement):
    """The scipy modules loaded in a fresh interpreter after ``statement``."""
    import growpop

    src = os.path.dirname(os.path.dirname(os.path.abspath(growpop.__file__)))
    code = (f"import sys, growpop, growpop.cli; {statement}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    return out.stdout.strip()


class TestDawsonTransform:
    @pytest.mark.parametrize("x", _P_ONE_XS)
    @pytest.mark.parametrize("rate", _P_ONE_RATES)
    def test_p_one_closed_form(self, x, rate):
        expect = (1.0 - math.exp(-rate * x)) / rate
        np.testing.assert_allclose(dawson_f(1.0, rate, x), expect, rtol=1e-10)

    @pytest.mark.parametrize("p,rate,x", _QUADRATURE_POINTS)
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

    @pytest.mark.parametrize("x", [1e6, 1e12])
    @pytest.mark.parametrize("rate", [0.1, 0.4, 1.6])
    @pytest.mark.parametrize("alpha", [0.5, 0.8, 0.95, 0.99, 1.0])
    def test_limit_behind_the_verdict(self, alpha, rate, x):
        # F ~ 1/(rate p x^(p-1)) -> 0 for p = 1/alpha > 1, and F -> 1/rate at p = 1
        p = 1.0 / alpha
        assert abs(dawson_f(p, rate, x) * rate * p * x ** (p - 1.0) - 1.0) <= 1e-6

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

    def test_against_hyp1f1(self):
        worst = max((abs(dawson_f(*probe) / _hyp1f1_reference(*probe) - 1.0), probe)
                    for probe in _dawson_probes())
        assert worst[0] <= 1e-14, worst

    @pytest.mark.parametrize("p,rate,x", [
        (1.0, 1.0, 1e308),  # exactly 1 to rounding
        (0.5, 1.0, 1e300),  # about 2e150
        (2.0, 1.0, 1e200),  # x^p overflows a float; about 5e-201
        (2.0, 1.0, 1e7),    # 5e-8 to 1e-14
    ])
    def test_large_arguments(self, p, rate, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dawson_f(p, rate, x)
        np.testing.assert_allclose(got, _hyp1f1_reference(p, rate, x), rtol=1e-14)

    @pytest.mark.parametrize("rate", [0.1, 1.0, 7.0])
    def test_p_one_identity_to_rounding(self, rate):
        for x in np.geomspace(1e-6, 1e4, 41):
            expect = -math.expm1(-rate * x) / rate
            np.testing.assert_allclose(dawson_f(1.0, rate, float(x)), expect, rtol=1e-14)

    def test_package_import_loads_no_scipy(self):
        # the package needs numpy alone; importing it must not pull in scipy
        assert _scipy_modules_after("pass") == "[]"

    def test_dawson_f_loads_no_scipy(self):
        # z <= 1 takes the small-z series and z >= 44 the large-z expansion
        sweep = "[growpop.dawson_f(p, 1.0, x) for p in (0.5, 1.0, 2.0) for x in (1.0, 2000.0)]"
        assert _scipy_modules_after(sweep) == "[]"


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
            classify_schedule(0.5, 0.5, 1.0, n_max=9)
        assert classify_schedule(0.5, 0.5, 1.0, n_max=10) is ScheduleClass.CONVERGES_C1

    def test_numpy_integer_n_max(self):
        assert classify_schedule(0.5, 0.4, 1.6, n_max=np.int64(20000)) is ScheduleClass.CONVERGES_C1

    @pytest.mark.parametrize("n_max", [True, 20000.0, np.float64(20000.0), "20000"])
    def test_n_max_must_be_an_integer(self, n_max):
        with pytest.raises(ValueError, match="n_max must be an integer >= 10,"):
            classify_schedule(0.5, 0.4, 1.6, n_max=n_max)

    def test_bad_rates_rejected(self):
        with pytest.raises(ValueError):
            classify_schedule(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            classify_schedule(0.5, 2.0, 1.0)  # star above max

    @pytest.mark.parametrize("n_max", [10_000, 100_000, 1_000_000])
    def test_alpha_just_below_one_converges(self, n_max):
        # S(0.4, n) rises from 1.664 at n = 10 to a peak near n = 230 before it
        # decays; the band about F holds on the rise as on the fall
        assert classify_schedule(0.9, 0.4, 1.6, n_max=n_max) is ScheduleClass.CONVERGES_C1

    @pytest.mark.parametrize("alpha, psi_star, n_max, verdict", [
        (0.8, 0.1, 10**6, ScheduleClass.CONVERGES_C1),
        (0.95, 0.4, 10**5, ScheduleClass.CONVERGES_C1),
        (0.99, 0.4, 10**6, ScheduleClass.CONVERGES_C1),
        (0.9999, 0.4, 10**5, ScheduleClass.CONVERGES_C1),
        (1.0001, 0.4, 10**5, ScheduleClass.FAILS_C2),
        (1.000001, 0.4, 10**5, ScheduleClass.FAILS_C2),
    ])
    def test_alpha_near_one(self, alpha, psi_star, n_max, verdict):
        # the sums near alpha = 1 turn only far past any n_max, yet stay in their band
        assert classify_schedule(alpha, psi_star, 1.6, n_max=n_max) is verdict

    @pytest.mark.parametrize("alpha, shift", [(0.5, 1e-3), (1.0, -1e-3), (1.5, 1e-2)])
    def test_sums_outside_the_band_raise(self, monkeypatch, alpha, shift):
        exact = analysis.condition_sum
        verdict = classify_schedule(alpha, 0.4, 1.6, n_max=100_000)
        monkeypatch.setattr(analysis, "condition_sum",  # a rounding-sized error stays inside
                            lambda lam, times, n: exact(lam, times, n) * (1.0 + 1e-14))
        assert classify_schedule(alpha, 0.4, 1.6, n_max=100_000) is verdict
        monkeypatch.setattr(analysis, "condition_sum",
                            lambda lam, times, n: exact(lam, times, n) + shift)
        with pytest.raises(ClassificationError, match=f"alpha={alpha}: .* leaves its band"):
            classify_schedule(alpha, 0.4, 1.6, n_max=100_000)

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
        g = 0.7 / np.arange(1, n + 1, dtype=float)
        y = self.recursion(lam, times, 2.0, g)
        spec = EnvelopeSpec(decay_rate=lam, y0=2.0, jump_bound=bound_fn)
        np.testing.assert_allclose(envelope_bound(spec, ExplicitSchedule(n0=1, times=times), n),
                                   y[-1], rtol=1e-12)

    def test_dominates_any_compliant_sequence(self):
        lam, n = 1.2, 80
        times = np.sort(RNG.uniform(0.1, 15.0, size=n))
        g = 1.0 / np.arange(1, n + 1, dtype=float)
        jumps = g * RNG.uniform(0.0, 1.0, size=n)  # |jumps| <= g
        y = self.recursion(lam, times, 0.5, jumps)
        spec = EnvelopeSpec(decay_rate=lam, y0=0.5, jump_bound=HarmonicScaled(c=1.0))
        for k in (10, 40, 80):
            bound = envelope_bound(spec, ExplicitSchedule(n0=1, times=times), k)
            assert y[k - 1] <= bound * (1.0 + 1e-12)

    def test_upper_envelope_rejects_negative_bounds(self):
        with pytest.raises(ValueError, match=r"^values must be >= 0"):
            ExplicitJumps(values=(-0.1, 0.2))
        with pytest.raises(ValueError, match=r"^c must be >= 0"):
            HarmonicScaled(c=-1.0)

    def test_explicit_jump_bound_on_boundary_scale(self):
        values = tuple(1.0 / k**2 for k in range(1, 101))
        spec = EnvelopeSpec(decay_rate=1.0, y0=0.0, jump_bound=ExplicitJumps(values=values))
        times = AsymptoticTimes(alpha=1.0)
        val = envelope_bound(spec, times, 100)
        # on the boundary scale: sum (1/k^2) (k/n) = H-ish / n
        expect = sum((1.0 / k**2) * (k / 100.0) for k in range(1, 101))
        np.testing.assert_allclose(val, expect, rtol=1e-12)

    def test_rejects_other_jump_bounds(self):
        spec = EnvelopeSpec(decay_rate=1.0, y0=0.0, jump_bound=lambda k: 1.0 / k**2)
        with pytest.raises(ValueError, match="unsupported jump bound"):
            envelope_bound(spec, ExplicitSchedule(n0=1, times=(1.0, 2.0)), 2)

    def test_numpy_integer_n(self):
        spec = EnvelopeSpec(decay_rate=1.0, y0=1.5, jump_bound=HarmonicScaled(c=0.5))
        times = asymptotic_injection_times(1.0)
        assert envelope_bound(spec, times, np.int64(400)) == envelope_bound(spec, times, 400)
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            envelope_bound(spec, times, True)
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            envelope_bound(spec, times, 4.0)

    def test_schedule_times_source(self):
        sched = PowerExponentialSchedule(alpha=0.5, n0=2)
        spec = EnvelopeSpec(decay_rate=0.5, y0=1.0, jump_bound=HarmonicScaled(c=1.0))
        val = envelope_bound(spec, sched, 40)
        assert 0.0 < val < 1.0 + sum(1.0 / k for k in range(1, 41))


class TestRateBounds:
    def test_half_alpha_window(self):
        rb = consensus_rate_bounds(0.5)
        assert rb.p == 2.0
        assert rb.beta_sup == 0.5

    def test_windows_close_at_boundary(self):
        rb = consensus_rate_bounds(1.0)
        assert rb.p == 1.0
        assert rb.beta_sup == 0.0
        assert consensus_rate_bounds(1.5).beta_sup < 0.0

    def test_any_exponent_below_sup_scales_the_sums_to_zero(self):
        # (ln n)^beta* S(lambda, n) must still vanish for beta* < p - 1
        alpha, lam, beta_star = 0.5, 1.0, 0.5
        assert beta_star < consensus_rate_bounds(alpha).p - 1.0
        times = asymptotic_injection_times(alpha)
        scaled = [math.log(n) ** beta_star * condition_sum(lam, times, n)
                  for n in (10**3, 10**4, 10**5, 10**6)]
        assert all(b < a for a, b in zip(scaled, scaled[1:]))
