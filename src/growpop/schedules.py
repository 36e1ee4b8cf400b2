"""Arrival schedules: when new agents join, and how many are present.

A schedule starts with ``n0`` agents at t = 0 and injects the j-th newcomer at
time t_j, so the population is right-continuous:

    N(t) = n0 + #{j >= 1 : t_j <= t}.

``PowerExponentialSchedule`` pins t_j = (ln(n0 + j))**(1/alpha), the first
instant at which exp(t**alpha) reaches n0 + j; equivalently N(t) tracks
floor(exp(t**alpha)). Small alpha means fast arrivals, alpha = 1 is the
exponential boundary case.
"""

from __future__ import annotations

import bisect
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Union

__all__ = [
    "PowerExponentialSchedule",
    "ExplicitSchedule",
    "GrowthSchedule",
    "injection_time",
    "population_at",
    "final_injection_count",
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


def injection_time(schedule: GrowthSchedule, j: int) -> float:
    """Arrival time t_j of the j-th newcomer, j >= 1. t_0 = 0 by convention."""
    j = _integer(j, "injection index", 0)
    if j == 0:
        return 0.0
    if isinstance(schedule, PowerExponentialSchedule):
        return _pinned_time(schedule, j)
    if j > len(schedule.times):
        raise ValueError(
            f"injection index {j} out of range; schedule defines {len(schedule.times)} times"
        )
    return schedule.times[j - 1]


def _pinned_time(schedule: PowerExponentialSchedule, j: int) -> float:
    """t_j = (ln(n0 + j))**(1/alpha) for an int j >= 1, unchecked: the one place
    the power-exponential family's formula lives."""
    return math.log(schedule.n0 + j) ** (1.0 / schedule.alpha)


def final_injection_count(schedule: GrowthSchedule):
    """Number of injections the schedule defines, or None if unbounded."""
    if isinstance(schedule, ExplicitSchedule):
        return len(schedule.times)
    return None


def population_at(schedule: GrowthSchedule, t: float) -> int:
    """Population N(t) = n0 + #{j : t_j <= t}; right-continuous, N(0) = n0.

    For the power-exponential family the count is located by comparing t
    against the pinned t_j values themselves (an exp-based guess corrected by
    direct comparison), so ``population_at(s, injection_time(s, j)) == n0 + j``
    holds exactly.
    """
    t = math.inf if t == math.inf else _number(t, "t", ">= 0")  # inf: every arrival is in
    if isinstance(schedule, ExplicitSchedule):
        return schedule.n0 + bisect.bisect_right(schedule.times, t)

    n0 = schedule.n0
    x = t ** schedule.alpha
    if x > 700.0:
        raise OverflowError(f"population at t={t} exceeds floating-point range")
    j = max(0, int(math.floor(math.exp(x))) - n0)
    # The guess is within a couple of counts of the truth; settle it exactly.
    while j >= 1 and injection_time(schedule, j) > t:
        j -= 1
    while injection_time(schedule, j + 1) <= t:
        j += 1
    return n0 + j
