"""Consensus criteria: condition sums, envelopes and the generalized Dawson integral.

The central object is the weighted sum

    S(lambda, n) = sum_{k=1}^{n} (1/k) * exp(-lambda * (t_n - t_k)),

which controls whether the variance contributions of early arrivals are
forgotten (S -> 0, consensus) or pile up (S bounded away from zero). It is the
envelope y0 e^(-lambda t_n) + sum_k g(k) e^(-lambda (t_n - t_k)) of a quantity
decaying at rate lambda with jumps g(k), at y0 = 0 and g(k) = 1/k. The times
come from a growth schedule, ``asymptotic_injection_times`` for the scale
t_k = (ln k)^(1/alpha), read through ``schedules._times``: they are finite,
at least t_0 = 0 and nondecreasing by construction, so no term's exponent is
positive and none overflows, regardless of how fast the times grow.

A table of envelopes at increasing n_1 < n_2 < ..., for any number of rates,
costs one O(n_max) pass in O(chunk x rates) memory: k runs in fixed chunks
of a few thousand terms, whose times and weights are made once for all
rates. Within a chunk each piece of segment j, the terms n_{j-1} < k <= n_j,
is summed by ``np.add.reduce``, the pairwise sum that ``np.sum`` calls; the
chunk sums of a segment are added by ``math.fsum``, correctly rounded, and the
running total, y0 at t_0 = 0, is carried by

    S(lambda, n_j) = exp(-lambda (t_{n_j} - t_{n_{j-1}})) S(lambda, n_{j-1}) + segment_j.

The factor is at most 1, so the recurrence is a contraction and carried
errors do not grow. With g >= 0 the terms are positive, so pairwise summation
has a relative error of O(eps log chunk), within O(eps log n) (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., section 4.2); that
matches the 1-ulp rounding of each ``exp`` and g(k), which no exact summation
of the rounded terms removes.

For arrival times on the scale t_k = (ln k)^p the sum's integral over
1 <= k <= n is the generalized Dawson integral F(p, x) = exp(-lambda x^p) *
int_0^x exp(lambda t^p) dt at x = ln n, which vanishes at infinity exactly
when p > 1. ``classify_schedule`` applies the resulting trichotomy in the
arrival exponent alpha = 1/p, and checks that each computed sum lies in a
proven band about F.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .schedules import (_CHUNK, GrowthSchedule, _integer, _integers, _number, _times,
                        asymptotic_injection_times)

__all__ = [
    "condition_sum",
    "dawson_f",
    "ScheduleClass",
    "ClassificationError",
    "classify_schedule",
    "EnvelopeSpec",
    "HarmonicScaled",
    "ExplicitJumps",
    "envelope_bound",
]


def _weight_chunks(bound: JumpBound, n: int) -> Callable[[int, int], np.ndarray]:
    """A reader of the jump weights: (lo, hi) -> g(lo+1..hi) as a new array, hi <= n."""
    if isinstance(bound, HarmonicScaled):
        def harmonic(lo, hi):
            g = _integers(lo, hi)
            return np.divide(bound.c, g, out=g)
        return harmonic
    if isinstance(bound, ExplicitJumps):
        if len(bound.values) < n:
            raise ValueError(f"jump bound defines {len(bound.values)} values, need {n}")
        return lambda lo, hi: np.array(bound.values[lo:hi], dtype=float)
    raise ValueError(f"unsupported jump bound {bound!r}")


def _condition_sums(lams: Sequence[float], times: GrowthSchedule, ns, bound: JumpBound,
                    y0: float = 0.0) -> np.ndarray:
    """y0 e^(-lam t_n) + sum_{k<=n} g(k) e^(-lam (t_n - t_k)) at each n of ``ns``,
    one row per rate of ``lams``.

    g >= 0 is the jump ``bound``. One pass walks k <= ns[-1] in chunks of
    _CHUNK terms, aligned at multiples of _CHUNK. A chunk's times are read by
    ``schedules._times`` and its weights built once for all rates; each
    piece of a segment ns[j-1] < k <= ns[j] inside the chunk is summed
    pairwise, and ``math.fsum`` adds the pieces of a segment. A segment's
    total adds the previous total carried forward by its decay factor (see
    the module docstring), at most 1 since the times are nondecreasing from
    t_0 = 0. t_n is read off the chunk holding k = n, or, before the walk
    reaches it, once per segment as the one time at k = n; a time depends on
    its index alone, so both agree. Memory is O(_CHUNK x rates), the buffers
    allocated once per call, plus one float per rate and chunk of the open
    segment, about 1,200 at n = 1e7.
    """
    lams = [_number(lam, "lambda", "> 0") for lam in lams]
    grid = np.asarray(ns)
    if (grid.ndim != 1 or grid.size == 0 or not np.issubdtype(grid.dtype, np.integer)
            or grid[0] < 1 or np.any(np.diff(grid) <= 0)):
        raise ValueError(f"ns must be strictly increasing integers >= 1, got {ns!r}")
    ends = grid.tolist()
    n_max = ends[-1]
    weight_chunk = _weight_chunks(bound, n_max)

    width = min(_CHUNK, n_max)
    diffs, terms = np.empty(width), np.empty((len(lams), width))
    sums = np.empty((len(lams), len(ends)))
    totals, pieces = [y0] * len(lams), [[] for _ in lams]
    j, t_last, t_n = 0, 0.0, None  # t at the previous grid point, and at this one
    for start in range(0, n_max, _CHUNK):
        stop = min(start + _CHUNK, n_max)
        t = _times(times, start, stop)
        g = weight_chunk(start, stop)
        lo = start
        while lo < stop:
            end = ends[j]
            t_n = (t[end - 1 - start] if end <= stop else
                   _times(times, end - 1, end)[0] if t_n is None else t_n)
            hi = min(end, stop)
            d = np.subtract(t[lo - start:hi - start], t_n, out=diffs[:hi - lo])
            for r, lam in enumerate(lams):
                # g(k) exp(-lam (t_n - t_k)) for lo < k <= hi, into the rate's buffer
                buf = np.multiply(d, lam, out=terms[r, :hi - lo])
                np.exp(buf, out=buf)
                buf *= g[lo - start:hi - start]
                pieces[r].append(float(np.add.reduce(buf)))
            if hi == end:
                for r, lam in enumerate(lams):
                    totals[r] = sums[r, j] = (math.fsum(pieces[r])
                                              + math.exp(-lam * (t_n - t_last)) * totals[r])
                    pieces[r].clear()
                j, t_last, t_n = j + 1, t_n, None
            lo = hi
    return sums


def condition_sum(lam: float, times: GrowthSchedule, n: int) -> float:
    """S(lambda, n) = sum_{k<=n} (1/k) exp(-lambda (t_n - t_k)).

    ``times`` is a growth schedule, ``asymptotic_injection_times`` for the
    scale t_k = (ln k)^(1/alpha); a list of times is an ``ExplicitSchedule``,
    which checks them when it is built. Only time differences enter, so the
    value is invariant under shifting all times by a constant.
    """
    return float(_condition_sums((lam,), times, (_integer(n, "n", 1),), HarmonicScaled(1.0))[0, 0])


# Below this z the positive series runs to about z + 8 sqrt(z) terms; above it
# the large-z expansion's smallest term, about sqrt(2 pi z) e^(-z), is below
# half an ulp of its sum, so the expansion is accurate to rounding.
_SERIES_Z = 40.0
_HALF_ULP = 2.0**-53


def dawson_f(p: float, rate: float, x: float) -> float:
    """Generalized Dawson integral F(p, x) = e^(-rate*x^p) int_0^x e^(rate*t^p) dt.

    Substituting u = rate*t^p and applying Kummer's transformation (DLMF 13.2.39)
    gives the closed form

        F(p, x) = x * M(1; 1 + a; -z),   a = 1/p,  z = rate * x^p,

    with M Kummer's confluent hypergeometric function, evaluated as:

    - z <= 40: x e^(-z) sum_n a/(a + n) z^n/n!, a sum of positive terms;
    - z > max(40, a): the large-z expansion (DLMF 13.7.2),
      x [(a/z) sum_s (1 - a)_s z^(-s), cut at its smallest term, plus the
      recessive term Gamma(1 + a) cos(pi a) e^(-z) z^(-a)];
    - 40 < z <= a, which needs p < 1/40: x sum_n (-z)^n / (1 + a)_n, whose
      terms fall in size from 1 (there the expansion's first terms grow);
    - z beyond the float range: the leading term (a/rate) x^(1-p), exact to
      rounding.

    Against mpmath's hyp1f1 at 50 digits the relative error is at most 2e-15,
    measured on p in [0.3, 4], rate in [0.1, 10], x in [0.01, 316], at the
    seam z = 40 and at z up to 1e308.

    F(1, x) = (1 - e^(-rate*x)) / rate exactly; F vanishes as x -> inf
    precisely when p > 1, with F ~ 1/(rate * p * x^(p-1)).
    """
    p, rate, x = _number(p, "p", "> 0"), _number(rate, "rate", "> 0"), _number(x, "x", ">= 0")
    a = 1.0 / p
    try:
        z = rate * x**p
    except OverflowError:  # x^p > 1.8e308: for any rate > 1e-290, 1/z is below rounding
        z = math.inf
    if z <= _SERIES_Z:
        # past n = z the terms shrink, so the first negligible one ends the sum
        n, term, total, step = 0, 1.0, 1.0, 1.0
        while n <= z or step > _HALF_ULP * total:
            n += 1
            term *= z / n
            step = a / (a + n) * term
            total += step
        return x * (math.exp(-z) * total)
    if z <= a:
        n, term, total = 0, 1.0, 1.0
        while abs(term) > _HALF_ULP * total:
            n += 1
            term *= -z / (a + n)
            total += term
        return x * total
    if z < math.inf:
        # |1 - a| < z, so the terms shrink until s passes z + a - 1
        s, term, total = 0, 1.0, 1.0
        while True:
            step = term * (s + 1.0 - a) / z
            if not _HALF_ULP * abs(total) < abs(step) < abs(term):
                break
            s, term, total = s + 1, step, total + step
        recessive = math.cos(math.pi * a) * math.exp(math.lgamma(1.0 + a) - z - a * math.log(z))
        return x * (a / z * total + recessive)
    return a / rate * x ** (1.0 - p)


class ScheduleClass(enum.Enum):
    CONVERGES_C1 = "converges_c1"
    FAILS_C2 = "fails_c2"
    EXPONENTIAL_BOUNDARY = "exponential_boundary"


class ClassificationError(RuntimeError):
    """A computed condition sum outside its proven band about the integral F."""


# The classification horizon's default: the largest n whose sums are checked,
# by ``classify_schedule`` and by ``growpop conditions`` (``cli.ConditionsBlock``).
_N_MAX = 100_000


def classify_schedule(alpha: float, psi_star: float, psi_max: float,
                      n_max: int = _N_MAX) -> ScheduleClass:
    """Trichotomy in the arrival exponent, with the sums checked against F.

    alpha < 1: arrivals decelerate fast enough that S(lambda, n) -> 0 for
    every rate, so the consensus criterion holds (CONVERGES_C1). alpha > 1:
    S stays bounded away from zero even at the largest coupling, defeating
    the criterion (FAILS_C2). alpha = 1 is the exponential-growth boundary,
    where S(lambda, n) -> 1/lambda > 0 for every lambda.

    The analytic rule gives the verdict: the integral of the sum's terms,
    F = dawson_f(1/alpha, lambda, ln n), vanishes exactly when alpha < 1. The
    sums on a geometric n-grid from 10 to n_max at the verdict's rates must
    lie in a proven band about F, else ClassificationError is raised.
    """
    alpha = _number(alpha, "alpha", "> 0")
    psi_star, psi_max = _number(psi_star, "psi_star", "> 0"), _number(psi_max, "psi_max", "> 0")
    if psi_star > psi_max:
        raise ValueError(f"psi_star must be <= psi_max, got ({psi_star}, {psi_max})")
    n_max = _integer(n_max, "n_max", 10)

    times, grid = asymptotic_injection_times(alpha), _sum_grid(n_max)
    # one condition_sum call per grid point: each sum is its own one-point
    # table, independent of the carried recurrence of a multi-point one
    return _classify(alpha, psi_star, psi_max, grid,
                     lambda lam: np.array([condition_sum(lam, times, n) for n in grid.tolist()]))


def _sum_grid(n_max: int) -> np.ndarray:
    """The geometric n-grid of the condition-sum table and of the classifier."""
    return np.unique(np.geomspace(10, n_max, 12).astype(int))


def _conditions_table(alpha: float, lambdas: Sequence[float], n_max: int):
    """(grid, {lam: S(lam, grid)}, verdict) for ``growpop conditions``.

    All the rates' columns come from one pass on the geometric grid up to
    n_max, on the scale t_k = (ln k)^(1/alpha). The verdict's rates, the
    smallest and largest lambda, are columns, so it is checked on the table.
    """
    grid = _sum_grid(n_max)
    rows = _condition_sums(lambdas, asymptotic_injection_times(alpha), grid, HarmonicScaled(1.0))
    columns = dict(zip(lambdas, rows))
    return grid, columns, _classify(alpha, min(lambdas), max(lambdas), grid, columns.__getitem__)


def _classify(alpha: float, psi_star: float, psi_max: float, grid: np.ndarray,
              sums_at: Callable[[float], np.ndarray]) -> ScheduleClass:
    """The analytic verdict for ``alpha``, with S checked against its band about F.

    ``sums_at(lam)`` gives S(lam, n) at every n of ``grid`` on the scale
    t_k = (ln k)^p, p = 1/alpha; it is asked for the verdict's rates only.

    With x = ln n and f(k) = (1/k) e^(-lam (x^p - (ln k)^p)), S = sum_{k<=n} f(k)
    and F = dawson_f(p, lam, x) = int_1^n f(k) dk (put u = ln k). Where f is
    monotone on [k, k+1], its integral there lies between f(k) and f(k+1); and
    d ln f / du = -1 + lam p u^(p-1).
    - p >= 1: f falls, then rises. Bounding each interval's integral above by
      its end farther from the minimum uses no k twice, so F <= S; bounding it
      below by the nearer end, and by 0 on the minimum's interval, uses every
      k but 1 and n, so S - F <= f(1) + f(n) = e^(-lam x^p) + 1/n.
    - p < 1: f rises to f_max at u = min((lam p)^(1/(1-p)), x), then falls.
      The same comparisons with the ends swapped give F <= S + f_max (the
      peak's interval bounded by f_max) and S - F <= 2 f_max (only the ends
      of the peak's interval left out).
    A sum outside its band, widened by 1e-12 S for rounding (S is within
    O(eps log n) of its terms, whose exponents carry the rounding of lam t_n;
    F is within 2e-15), raises ClassificationError.
    """
    p = 1.0 / alpha
    verdict, rates = ((ScheduleClass.CONVERGES_C1, {psi_star}) if alpha < 1.0 else
                      (ScheduleClass.FAILS_C2, {psi_max}) if alpha > 1.0 else
                      (ScheduleClass.EXPONENTIAL_BOUNDARY, {psi_star, psi_max}))
    for lam in rates:
        for n, s in zip(grid.tolist(), sums_at(lam).tolist()):
            x = math.log(n)
            if p >= 1.0:
                low, high = 0.0, math.exp(-lam * x**p) + 1.0 / n
            else:  # the peak's ln(u) first, as 1/(1-p) may be huge
                u = math.exp(min(math.log(lam * p) / (1.0 - p), math.log(x)))
                f_max = math.exp(-u - lam * (x**p - u**p))
                low, high = -f_max, 2.0 * f_max
            gap, slack = s - dawson_f(p, lam, x), 1e-12 * s
            if not low - slack <= gap <= high + slack:
                raise ClassificationError(f"alpha={alpha}: S(lambda={lam}, n={n}) = {s} leaves "
                                          f"its band, S - F = {gap} outside [{low}, {high}]")
    return verdict


@dataclass(frozen=True)
class HarmonicScaled:
    """Per-arrival bound g(n) = c / n, c >= 0."""

    c: float

    def __post_init__(self):
        object.__setattr__(self, "c", _number(self.c, "c", ">= 0"))


@dataclass(frozen=True)
class ExplicitJumps:
    """Per-arrival bounds given outright: g(k) = values[k-1], each >= 0."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values",
                           tuple(_number(v, "values", ">= 0") for v in self.values))


JumpBound = Union[HarmonicScaled, ExplicitJumps]


@dataclass(frozen=True)
class EnvelopeSpec:
    """Decayed-recursion envelope: rate, initial value, per-arrival bound.

    ``envelope_bound`` of it upper-bounds any y with y(0) <= y0 that satisfies
    y' <= -decay_rate * y between arrivals and |jump at arrival n| <= g(n).
    """

    decay_rate: float
    y0: float
    jump_bound: JumpBound

    def __post_init__(self):
        object.__setattr__(self, "decay_rate", _number(self.decay_rate, "decay_rate", "> 0"))
        object.__setattr__(self, "y0", _number(self.y0, "y0"))


def envelope_bound(spec: EnvelopeSpec, times: GrowthSchedule, n: int) -> float:
    """y0 e^(-lam t_n) + sum_{k<=n} g(k) e^(-lam (t_n - t_k)), t_0 = 0.

    The jump bounds are nonnegative, so the terms are too, and their
    pairwise sum is within O(eps log n) of the sum (Higham, section 4.2).
    """
    return float(_condition_sums((spec.decay_rate,), times, (_integer(n, "n", 1),),
                                 spec.jump_bound, spec.y0)[0, 0])

