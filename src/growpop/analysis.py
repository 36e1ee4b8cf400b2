"""Consensus criteria: condition sums, envelopes, and decay-rate tools.

The central object is the weighted sum

    S(lambda, n) = sum_{k=1}^{n} (1/k) * exp(-lambda * (t_n - t_k)),

which controls whether the variance contributions of early arrivals are
forgotten (S -> 0, consensus) or pile up (S bounded away from zero). Every
term is evaluated in the shifted form exp(-lambda*(t_n - t_k) - ln k), whose
exponent is never positive, so nothing overflows regardless of how fast the
times grow.

A table of S at increasing n_1 < n_2 < ... costs one O(n_max) pass per rate:
segment j, the terms n_{j-1} < k <= n_j, is summed by numpy's pairwise
``np.sum``, and the running total is carried by

    S(lambda, n_j) = exp(-lambda (t_{n_j} - t_{n_{j-1}})) S(lambda, n_{j-1}) + segment_j.

The factor is at most 1, so the recurrence is a contraction and carried
errors do not grow. The terms are positive, so pairwise summation has a
relative error of O(eps log n) (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., section 4.2); that matches the 1-ulp rounding of each
``exp`` in the terms, which no exact summation of the rounded terms removes.

For arrival times on the scale t_k = (ln k)^p the sum is asymptotically the
generalized Dawson integral F(p, x) = exp(-lambda x^p) * int_0^x
exp(lambda t^p) dt at x = ln n, which vanishes at infinity exactly when
p > 1. ``classify_schedule`` applies the resulting trichotomy in the arrival
exponent alpha = 1/p and cross-checks it numerically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .schedules import ExplicitSchedule, GrowthSchedule, PowerExponentialSchedule, _integer

__all__ = [
    "condition_sum",
    "asymptotic_injection_times",
    "AsymptoticTimes",
    "dawson_f",
    "ScheduleClass",
    "ClassificationError",
    "classify_schedule",
    "EnvelopeSpec",
    "HarmonicScaled",
    "ExplicitJumps",
    "envelope_bound",
    "fit_decay_exponent",
    "DecayFit",
    "consensus_rate_bounds",
    "RateBounds",
]


@dataclass(frozen=True)
class AsymptoticTimes:
    """Large-k time scale t_k = (ln k)^(1/alpha) of a power-exponential schedule.

    This is the schedule with its initial population dropped (t_1 = 0), the
    scale on which the condition sums admit closed forms: alpha = 1 and
    lambda = 1 gives S(n) = 1 exactly for every n.
    """

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0.0) or not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be > 0, got {self.alpha}")

    def array(self, n: int) -> np.ndarray:
        n = _integer(n, "n", 0)
        return np.log(np.arange(1, n + 1, dtype=float)) ** (1.0 / self.alpha)


def asymptotic_injection_times(alpha: float) -> AsymptoticTimes:
    return AsymptoticTimes(alpha=float(alpha))


TimesSource = Union[GrowthSchedule, AsymptoticTimes, Sequence[float]]


def _times_array(times: TimesSource, n: int) -> np.ndarray:
    """Arrival times t_1..t_n as a float array, validated nondecreasing."""
    if isinstance(times, PowerExponentialSchedule):
        t = np.log(times.n0 + np.arange(1, n + 1, dtype=float)) ** (1.0 / times.alpha)
    elif isinstance(times, ExplicitSchedule):
        if len(times.times) < n:
            raise ValueError(f"schedule defines {len(times.times)} times, need {n}")
        t = np.asarray(times.times[:n], dtype=float)
    elif isinstance(times, AsymptoticTimes):
        t = times.array(n)
    else:
        try:
            t = np.asarray(times, dtype=float).reshape(-1)
        except (TypeError, ValueError):
            raise ValueError("times must be a growth schedule, an AsymptoticTimes scale or a "
                             f"sequence of times t_1..t_n, got {times!r}") from None
        if t.size < n:
            raise ValueError(f"times sequence has {t.size} entries, need {n}")
        t = t[:n]
    if t.size and np.any(np.diff(t) < 0.0):
        raise ValueError("arrival times must be nondecreasing")
    return t


def _condition_sums(lam: float, times: TimesSource, ns) -> np.ndarray:
    """S(lambda, n) at every n of the strictly increasing integers ``ns``.

    One pass over k <= ns[-1]: each segment ns[j-1] < k <= ns[j] is summed
    pairwise and added to the previous sum carried forward by its decay
    factor (see the module docstring). Temporaries are one segment long.
    """
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError(f"lambda must be > 0, got {lam}")
    grid = np.asarray(ns)
    if (grid.ndim != 1 or grid.size == 0 or not np.issubdtype(grid.dtype, np.integer)
            or grid[0] < 1 or np.any(np.diff(grid) <= 0)):
        raise ValueError(f"ns must be strictly increasing integers >= 1, got {ns!r}")
    t = _times_array(times, int(grid[-1]))
    sums = np.empty(grid.size)
    total, lo = 0.0, 0
    for j, hi in enumerate(grid.tolist()):
        # exp(-lam (t_n - t_k) - ln k) for lo < k <= hi, built in place
        terms = t[lo:hi] - t[hi - 1]
        terms *= lam
        log_k = np.arange(lo + 1, hi + 1, dtype=float)
        terms -= np.log(log_k, out=log_k)
        segment = float(np.sum(np.exp(terms, out=terms)))
        total = segment + (math.exp(-lam * (t[hi - 1] - t[lo - 1])) * total if lo else 0.0)
        sums[j] = total
        lo = hi
    return sums


def condition_sum(lam: float, times: TimesSource, n: int) -> float:
    """S(lambda, n) = sum_{k<=n} (1/k) exp(-lambda (t_n - t_k)).

    ``times`` may be a growth schedule, an AsymptoticTimes scale, or a plain
    sequence of the times t_1..t_n. Only time differences enter,
    so the value is invariant under shifting all times by a constant.
    """
    return float(_condition_sums(lam, times, (_integer(n, "n", 1),))[0])


def dawson_f(p: float, rate: float, x: float) -> float:
    """Generalized Dawson integral F(p, x) = e^(-rate*x^p) int_0^x e^(rate*t^p) dt.

    Evaluated as int_0^x exp(rate*(t^p - x^p)) dt: the shifted integrand lives
    in (0, 1], so no overflow occurs for any argument. Adaptive quadrature
    with explicit breakpoints inside the boundary layer near t = x keeps the
    relative error at or below ~1e-10 across the supported range.

    F(1, x) = (1 - e^(-rate*x)) / rate exactly; F vanishes as x -> inf
    precisely when p > 1, with F ~ 1/(rate * p * x^(p-1)).
    """
    from scipy.integrate import quad  # here, so that importing growpop skips scipy

    p, rate, x = float(p), float(rate), float(x)
    if not (p > 0.0) or not math.isfinite(p):
        raise ValueError(f"p must be > 0, got {p}")
    if not (rate > 0.0) or not math.isfinite(rate):
        raise ValueError(f"rate must be > 0, got {rate}")
    if not (x >= 0.0) or not math.isfinite(x):
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0.0:
        return 0.0

    xp = x**p

    def integrand(t: float) -> float:
        # t^p - x^p <= 0 on [0, x]; exp underflows harmlessly to 0
        return math.exp(rate * (t**p - xp))

    # Mass concentrates in a layer of width ~1/(rate p x^(p-1)) at t = x when
    # p >= 1 and rate*x^p is large; seed the subdivision there.
    pts = []
    if p >= 1.0 and x > 0.0:
        width = 1.0 / (rate * p * max(x, 1e-300) ** (p - 1.0))
        for mult in (30.0, 5.0, 1.0):
            cut = x - mult * width
            if 0.0 < cut < x:
                pts.append(cut)
    val, _ = quad(integrand, 0.0, x, epsabs=1e-13, epsrel=1e-11, limit=400,
                  points=sorted(set(pts)) or None)
    return float(val)


class ScheduleClass(enum.Enum):
    CONVERGES_C1 = "converges_c1"
    FAILS_C2 = "fails_c2"
    EXPONENTIAL_BOUNDARY = "exponential_boundary"


class ClassificationError(RuntimeError):
    """Numeric trend contradicted the analytic classification."""


def classify_schedule(alpha: float, psi_star: float, psi_max: float,
                      n_max: int = 100_000) -> ScheduleClass:
    """Trichotomy in the arrival exponent, cross-checked numerically.

    alpha < 1: arrivals decelerate fast enough that S(lambda, n) -> 0 for
    every rate, so the consensus criterion holds (CONVERGES_C1). alpha > 1:
    S stays bounded away from zero even at the largest coupling, defeating
    the criterion (FAILS_C2). alpha = 1 is the exponential-growth boundary,
    where S(lambda, n) -> 1/lambda > 0 for every lambda.

    The analytic rule is authoritative; condition sums on a geometric n-grid
    up to n_max are evaluated at the kernel's certified rates and a trend
    inconsistent with the rule raises ClassificationError.
    """
    if not (alpha > 0.0) or not math.isfinite(alpha):
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not (0.0 < psi_star <= psi_max) or not math.isfinite(psi_max):
        raise ValueError(f"need 0 < psi_star <= psi_max, got ({psi_star}, {psi_max})")
    n_max = _integer(n_max, "n_max", 10_000)

    times = asymptotic_injection_times(alpha)
    grid = _sum_grid(n_max)
    # one condition_sum call per grid point: each sum is its own one-point
    # table, independent of the carried recurrence of a multi-point one
    return _classify(alpha, psi_star, psi_max, grid,
                     lambda lam: np.array([condition_sum(lam, times, n) for n in grid.tolist()]))


def _sum_grid(n_max: int) -> np.ndarray:
    """The geometric n-grid of the condition-sum table and of the classifier."""
    return np.unique(np.geomspace(10, n_max, 12).astype(int))


def _conditions_table(alpha: float, lambdas: Sequence[float], n_max: int):
    """(grid, {lam: S(lam, grid)}, verdict) for ``growpop conditions``.

    Each rate's column is one pass on the geometric grid up to n_max, on the
    scale t_k = (ln k)^(1/alpha). From n_max >= 10000 on this grid is the
    classifier's and its rates, the smallest and largest lambda, are columns,
    so the verdict is checked on the table; below that ``classify_schedule``
    evaluates its own grid up to 10000.
    """
    grid = _sum_grid(n_max)
    times = asymptotic_injection_times(alpha).array(int(grid[-1]))  # built once for all rates
    columns = {lam: _condition_sums(lam, times, grid) for lam in lambdas}
    psi_star, psi_max = min(lambdas), max(lambdas)
    if n_max >= 10_000:
        verdict = _classify(alpha, psi_star, psi_max, grid, columns.__getitem__)
    else:
        verdict = classify_schedule(alpha, psi_star, psi_max, n_max=10_000)
    return grid, columns, verdict


def _classify(alpha: float, psi_star: float, psi_max: float, grid: np.ndarray,
              sums_at: Callable[[float], np.ndarray]) -> ScheduleClass:
    """The analytic verdict for ``alpha``, cross-checked on S at ``grid``.

    ``sums_at(lam)`` gives S(lam, n) at every n of ``grid`` on the scale
    t_k = (ln k)^(1/alpha); it is asked only for psi_star and psi_max.
    """
    if alpha < 1.0:
        s = sums_at(psi_star).tolist()
        tail = s[len(s) // 2:]
        decreasing = all(b <= a * (1.0 + 1e-9) for a, b in zip(tail, tail[1:]))
        if not decreasing or not s[-1] < s[0]:
            raise ClassificationError(
                f"alpha={alpha} < 1 predicts decaying sums, observed {s}"
            )
        return ScheduleClass.CONVERGES_C1
    if alpha > 1.0:
        s = sums_at(psi_max).tolist()
        if s[-1] < 0.9 * s[len(s) // 2] or s[-1] <= 1e-8:
            raise ClassificationError(
                f"alpha={alpha} > 1 predicts non-vanishing sums, observed {s}"
            )
        return ScheduleClass.FAILS_C2
    for lam in {psi_star, psi_max}:
        s_last = float(sums_at(lam)[-1])
        if s_last < 0.25 * min(1.0, 1.0 / lam):
            raise ClassificationError(
                f"boundary alpha=1 predicts S -> 1/lambda = {1.0 / lam}, "
                f"observed {s_last} at n={grid[-1]}"
            )
    return ScheduleClass.EXPONENTIAL_BOUNDARY


@dataclass(frozen=True)
class HarmonicScaled:
    """Per-arrival bound g(n) = c / n."""

    c: float

    def values(self, n: int) -> np.ndarray:
        return self.c / np.arange(1, n + 1, dtype=float)


@dataclass(frozen=True)
class ExplicitJumps:
    """Per-arrival bounds given outright: g(k) = values[k-1]."""

    values: tuple[float, ...]

    def values_array(self, n: int) -> np.ndarray:
        if len(self.values) < n:
            raise ValueError(f"jump bound defines {len(self.values)} values, need {n}")
        return np.asarray(self.values[:n], dtype=float)


JumpBound = Union[HarmonicScaled, ExplicitJumps]


@dataclass(frozen=True)
class EnvelopeSpec:
    """Decayed-recursion envelope: rate, initial value, per-arrival bound.

    With reverse=False the returned value upper-bounds any y satisfying
    y' <= -decay_rate * y between arrivals and |jump at arrival n| <= g(n);
    with reverse=True the same formula lower-bounds any y with y' >=
    -decay_rate * y and jumps >= g(n) (g may then be negative).
    """

    decay_rate: float
    y0: float
    jump_bound: JumpBound
    reverse: bool = False


def _jump_values(bound: JumpBound, n: int) -> np.ndarray:
    if isinstance(bound, HarmonicScaled):
        return bound.values(n)
    if isinstance(bound, ExplicitJumps):
        return bound.values_array(n)
    raise ValueError(f"unsupported jump bound {bound!r}")


def envelope_bound(spec: EnvelopeSpec, times: TimesSource, n: int) -> float:
    """y0 e^(-lam t_n) + sum_{k<=n} g(k) e^(-lam (t_n - t_k)), t_0 = 0.

    All exponents are nonpositive, so the evaluation cannot overflow however
    large the times are. The terms are summed pairwise: with nonnegative jump
    bounds the error is O(eps log n) relative to the sum; with a reverse
    envelope's bounds of mixed sign it is O(eps log n) relative to the sum of
    the terms' absolute values (Higham, section 4.2), and cancellation can
    make it large relative to the sum itself.
    """
    lam = spec.decay_rate
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError(f"decay rate must be > 0, got {lam}")
    n = _integer(n, "n", 1)
    t = _times_array(times, n)
    g = _jump_values(spec.jump_bound, n)
    if not spec.reverse and np.any(g < 0.0):
        raise ValueError("upper envelopes need nonnegative jump bounds")
    terms = t - t[-1]  # built in place: one (n,) temporary beside t and g
    terms *= lam
    np.exp(terms, out=terms)
    terms *= g
    return spec.y0 * math.exp(-lam * t[-1]) + float(np.sum(terms))


class DecayFit(NamedTuple):
    beta_hat: float
    r2: float


def fit_decay_exponent(series, window: float) -> DecayFit:
    """Least-squares exponent of algebraic decay v ~ t^(-beta) on the tail.

    ``series`` is a sequence of (t, value) pairs; ``window`` the fraction of
    points (from the end) to fit. Requires at least 10 positive points at
    positive times in the window. Returns the fitted beta (positive means
    decay) and the r^2 of the log-log fit; a constant series fits exactly
    with beta_hat = 0.
    """
    pts = np.asarray(list(series), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("series must be a sequence of (t, value) pairs")
    if not (0.0 < window <= 1.0):
        raise ValueError(f"window must be a fraction in (0, 1], got {window}")
    count = int(math.ceil(window * pts.shape[0]))
    if count < 10:
        raise ValueError(f"window holds {count} points; at least 10 are required")
    tail = pts[-count:]
    t, v = tail[:, 0], tail[:, 1]
    if np.any(t <= 0.0):
        raise ValueError("fit window contains nonpositive times")
    if np.any(v <= 0.0):
        raise ValueError("fit window contains nonpositive values; no algebraic decay regime")
    lt, lv = np.log(t), np.log(v)
    if np.ptp(lv) == 0.0:  # exactly constant: slope 0 by definition, not by fit
        return DecayFit(beta_hat=0.0, r2=1.0)
    slope, intercept = np.polyfit(lt, lv, 1)
    pred = slope * lt + intercept
    ss_res = float(np.sum((lv - pred) ** 2))
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(beta_hat=float(-slope), r2=float(r2))


class RateBounds(NamedTuple):
    p: float               # time exponent, 1/alpha
    beta_star_sup: float   # supremum of valid (ln n)-scale exponents: p - 1
    beta_sup: float        # supremum of valid t-scale exponents: 1 - alpha


def consensus_rate_bounds(alpha: float) -> RateBounds:
    """Decay-rate windows on both scales for arrival exponent alpha.

    Variance decays like (ln n)^(-beta*) for any beta* < p - 1 (n-scale),
    equivalently t^(-beta) for any beta < 1 - alpha (t-scale, via
    ln n = t^alpha). Both suprema are positive exactly when alpha < 1.
    """
    if not (alpha > 0.0) or not math.isfinite(alpha):
        raise ValueError(f"alpha must be > 0, got {alpha}")
    p = 1.0 / alpha
    return RateBounds(p=p, beta_star_sup=p - 1.0, beta_sup=1.0 - alpha)
