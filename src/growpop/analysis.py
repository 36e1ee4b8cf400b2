"""Consensus criteria: condition sums, envelopes, and decay-rate tools.

The central object is the weighted sum

    S(lambda, n) = sum_{k=1}^{n} (1/k) * exp(-lambda * (t_n - t_k)),

which controls whether the variance contributions of early arrivals are
forgotten (S -> 0, consensus) or pile up (S bounded away from zero). Every
term is evaluated in the shifted form exp(-lambda*(t_n - t_k) - ln k), whose
exponent is never positive, so nothing overflows regardless of how fast the
times grow; the sum itself is accumulated with compensated (exact) summation.

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
from scipy.integrate import quad

from .schedules import ExplicitSchedule, GrowthSchedule, PowerExponentialSchedule

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

    def __call__(self, k: int) -> float:
        if k < 1:
            raise ValueError(f"index must be >= 1, got {k}")
        return math.log(k) ** (1.0 / self.alpha)

    def array(self, n: int) -> np.ndarray:
        return np.log(np.arange(1, n + 1, dtype=float)) ** (1.0 / self.alpha)


def asymptotic_injection_times(alpha: float) -> AsymptoticTimes:
    return AsymptoticTimes(alpha=float(alpha))


TimesSource = Union[GrowthSchedule, AsymptoticTimes, Sequence[float], Callable[[int], float]]


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
    elif callable(times):
        t = np.array([float(times(k)) for k in range(1, n + 1)])
    else:
        t = np.asarray(times, dtype=float).reshape(-1)
        if t.size < n:
            raise ValueError(f"times sequence has {t.size} entries, need {n}")
        t = t[:n]
    if t.size and np.any(np.diff(t) < 0.0):
        raise ValueError("arrival times must be nondecreasing")
    return t


def condition_sum(lam: float, times: TimesSource, n: int) -> float:
    """S(lambda, n) = sum_{k<=n} (1/k) exp(-lambda (t_n - t_k)).

    ``times`` may be a growth schedule, an AsymptoticTimes scale, a plain
    sequence of times, or a callable k -> t_k. Only time differences enter,
    so the value is invariant under shifting all times by a constant.
    """
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError(f"lambda must be > 0, got {lam}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    t = _times_array(times, n)
    expo = -lam * (t[-1] - t) - np.log(np.arange(1, n + 1, dtype=float))
    return math.fsum(np.exp(expo))


def dawson_f(p: float, rate: float, x: float) -> float:
    """Generalized Dawson integral F(p, x) = e^(-rate*x^p) int_0^x e^(rate*t^p) dt.

    Evaluated as int_0^x exp(rate*(t^p - x^p)) dt: the shifted integrand lives
    in (0, 1], so no overflow occurs for any argument. Adaptive quadrature
    with explicit breakpoints inside the boundary layer near t = x keeps the
    relative error at or below ~1e-10 across the supported range.

    F(1, x) = (1 - e^(-rate*x)) / rate exactly; F vanishes as x -> inf
    precisely when p > 1, with F ~ 1/(rate * p * x^(p-1)).
    """
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
    if not isinstance(n_max, int) or n_max < 10_000:
        raise ValueError(f"n_max must be an integer >= 10000, got {n_max!r}")

    if alpha < 1.0:
        verdict = ScheduleClass.CONVERGES_C1
    elif alpha > 1.0:
        verdict = ScheduleClass.FAILS_C2
    else:
        verdict = ScheduleClass.EXPONENTIAL_BOUNDARY

    times = asymptotic_injection_times(alpha)
    grid = np.unique(np.geomspace(10, n_max, 12).astype(int))

    if verdict is ScheduleClass.CONVERGES_C1:
        s = [condition_sum(psi_star, times, int(n)) for n in grid]
        tail = s[len(s) // 2:]
        decreasing = all(b <= a * (1.0 + 1e-9) for a, b in zip(tail, tail[1:]))
        if not decreasing or not s[-1] < s[0]:
            raise ClassificationError(
                f"alpha={alpha} < 1 predicts decaying sums, observed {s}"
            )
    elif verdict is ScheduleClass.FAILS_C2:
        s = [condition_sum(psi_max, times, int(n)) for n in grid]
        if s[-1] < 0.9 * s[len(s) // 2] or s[-1] <= 1e-8:
            raise ClassificationError(
                f"alpha={alpha} > 1 predicts non-vanishing sums, observed {s}"
            )
    else:
        for lam in {psi_star, psi_max}:
            s_last = condition_sum(lam, times, int(grid[-1]))
            if s_last < 0.25 * min(1.0, 1.0 / lam):
                raise ClassificationError(
                    f"boundary alpha=1 predicts S -> 1/lambda = {1.0 / lam}, "
                    f"observed {s_last} at n={grid[-1]}"
                )
    return verdict


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


JumpBound = Union[HarmonicScaled, ExplicitJumps, Callable[[int], float]]


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
    if callable(bound):
        return np.array([float(bound(k)) for k in range(1, n + 1)])
    raise ValueError(f"unsupported jump bound {bound!r}")


def envelope_bound(spec: EnvelopeSpec, times: TimesSource, n: int) -> float:
    """y0 e^(-lam t_n) + sum_{k<=n} g(k) e^(-lam (t_n - t_k)), t_0 = 0.

    All exponents are nonpositive, so the evaluation cannot overflow however
    large the times are.
    """
    lam = spec.decay_rate
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError(f"decay rate must be > 0, got {lam}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    t = _times_array(times, n)
    g = _jump_values(spec.jump_bound, n)
    if not spec.reverse and np.any(g < 0.0):
        raise ValueError("upper envelopes need nonnegative jump bounds")
    terms = g * np.exp(-lam * (t[-1] - t))
    return spec.y0 * math.exp(-lam * t[-1]) + math.fsum(terms)


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
