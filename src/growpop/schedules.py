"""Arrival schedules: when new agents join, and how many are present.

A schedule starts with ``n0`` agents at t = 0 and injects the j-th newcomer at
time t_j, so the population is right-continuous:

    N(t) = n0 + #{j >= 1 : t_j <= t}.

``PowerExponentialSchedule`` pins t_j = (ln(n0 + j))**(1/alpha), the first
instant at which exp(t**alpha) reaches n0 + j; equivalently N(t) tracks
floor(exp(t**alpha)). Small alpha means fast arrivals, alpha = 1 is the
exponential boundary case. ``AsymptoticTimes`` is the same scale with n0 = 0,
t_k = (ln k)**(1/alpha), on which the condition sums of ``analysis`` have
closed forms.

This module alone turns a schedule into times. Every reader of arrival times,
the engine's and the condition sums' included, goes through ``_times``, so
each t_j comes from one formula wherever it is read.
"""

from __future__ import annotations

import bisect
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "PowerExponentialSchedule",
    "ExplicitSchedule",
    "GrowthSchedule",
    "AsymptoticTimes",
    "asymptotic_injection_times",
    "injection_time",
    "population_at",
]


def _integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int of at least ``minimum``: any integer type but bool."""
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if minimum is None or value >= minimum:
                return value
    at_least = "" if minimum is None else f" >= {minimum}"
    raise ValueError(f"{name} must be an integer{at_least}, got {value!r}")


def _number(value, name: str, bound: str | None = None) -> float:
    """``value`` as a finite float, also "> 0" or ">= 0" if ``bound`` says so:
    any real type but bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    out = float(value)
    if not (math.isfinite(out) and {None: True, "> 0": out > 0.0, ">= 0": out >= 0.0}[bound]):
        raise ValueError(f"{name} must be {bound + ' and ' if bound else ''}finite, got {value!r}")
    return out


@dataclass(frozen=True)
class PowerExponentialSchedule:
    """t_j = (ln(n0 + j))**(1/alpha); unbounded, strictly increasing."""

    alpha: float
    n0: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", _number(self.alpha, "alpha", "> 0"))
        object.__setattr__(self, "n0", _integer(self.n0, "n0", 1))


@dataclass(frozen=True)
class ExplicitSchedule:
    """A finite, user-supplied list of strictly increasing positive times."""

    n0: int
    times: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "n0", _integer(self.n0, "n0", 1))
        object.__setattr__(self, "times", tuple(_number(t, "times") for t in self.times))
        prev = 0.0
        for i, t in enumerate(self.times):
            if t <= prev:
                raise ValueError(
                    f"times must be strictly increasing and > 0; offending entry {i}: {t}"
                )
            prev = t


GrowthSchedule = Union[PowerExponentialSchedule, ExplicitSchedule]


@dataclass(frozen=True)
class AsymptoticTimes:
    """Large-k time scale t_k = (ln k)^(1/alpha) of a power-exponential schedule.

    This is the schedule with its initial population dropped (n0 = 0, so
    t_1 = 0), the scale on which the condition sums admit closed forms:
    alpha = 1 and lambda = 1 gives S(n) = 1 exactly for every n.
    """

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _number(self.alpha, "alpha", "> 0"))


def asymptotic_injection_times(alpha: float) -> AsymptoticTimes:
    return AsymptoticTimes(alpha=alpha)


TimeScale = Union[GrowthSchedule, AsymptoticTimes]


def _times(schedule: TimeScale, lo: int, hi: int) -> np.ndarray:
    """t_{lo+1..hi} of ``schedule`` as a new float array, 0 <= lo <= hi: the one
    reader of arrival times.

    An explicit schedule's times are its own; an ``hi`` past their number
    raises ValueError. The power-exponential family's are
    (ln(n0 + j))**(1/alpha) by numpy's log and power, with n0 = 0 on an
    AsymptoticTimes scale. Each value depends on j alone, not on where the
    slice starts, so slices agree bit for bit with one full array. The family
    increases with j, so the last time bounds the others: a last time past
    the float range raises OverflowError.
    """
    if isinstance(schedule, ExplicitSchedule):
        if hi > len(schedule.times):
            raise ValueError(f"schedule defines {len(schedule.times)} times, need {hi}")
        return np.array(schedule.times[lo:hi], dtype=float)
    if isinstance(schedule, AsymptoticTimes):
        n0 = 0
    elif isinstance(schedule, PowerExponentialSchedule):
        n0 = schedule.n0
    else:
        raise ValueError("times must be a growth schedule or an AsymptoticTimes scale, "
                         f"got {schedule!r}")
    t = np.arange(n0 + lo + 1, n0 + hi + 1, dtype=float)
    with np.errstate(over="ignore"):
        np.log(t, out=t)
        t **= 1.0 / schedule.alpha
    if t.size and t[-1] == math.inf:
        raise OverflowError(f"arrival time t_{hi} = (ln {n0 + hi})^(1/{schedule.alpha}) "
                            "exceeds the floating-point range")
    return t


def injection_time(schedule: GrowthSchedule, j: int) -> float:
    """Arrival time t_j of the j-th newcomer, j >= 1. t_0 = 0 by convention."""
    j = _integer(j, "injection index", 0)
    return float(_times(schedule, j - 1, j)[0]) if j else 0.0


def population_at(schedule: GrowthSchedule, t: float) -> int:
    """Population N(t) = n0 + #{j : t_j <= t}; right-continuous, N(0) = n0.

    For the power-exponential family the count is located by comparing t
    against the times t_j themselves (an exp-based guess corrected by direct
    comparison), so ``population_at(s, injection_time(s, j)) == n0 + j``
    holds exactly for every j with t_j < t_{j+1}. Consecutive times lie
    relatively about 1/(max(1, alpha) (n0 + j) ln(n0 + j)) apart (ln rounds
    too), so they stay apart for n0 + j below about 1e14 / max(1, alpha) and
    then start to round to equal floats; N(t_j) then counts the last arrival
    of a tie. A t past 2**53 arrivals, which no run can hold, raises
    OverflowError.
    """
    t = math.inf if t == math.inf else _number(t, "t", ">= 0")  # inf: every arrival is in
    if isinstance(schedule, ExplicitSchedule):
        return schedule.n0 + bisect.bisect_right(schedule.times, t)

    n0 = schedule.n0
    x = t ** schedule.alpha
    if x > 700.0:
        raise OverflowError(f"population at t={t} exceeds floating-point range")
    j = max(0, int(math.floor(math.exp(x))) - n0)
    if j > 2**53:
        # the walk below would step through runs of tied times one by one
        raise OverflowError(f"population at t={t} is about {j} arrivals, past 2**53, "
                            "where arrival times tie")
    # The guess is within a few counts of the truth, a few hundred where times
    # tie below 2**53; settle it exactly.
    while j >= 1 and injection_time(schedule, j) > t:
        j -= 1
    while injection_time(schedule, j + 1) <= t:
        j += 1
    return n0 + j
