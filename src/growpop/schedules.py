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
from dataclasses import dataclass
from typing import Union

__all__ = [
    "PowerExponentialSchedule",
    "ExplicitSchedule",
    "GrowthSchedule",
    "injection_time",
    "population_at",
]


@dataclass(frozen=True)
class PowerExponentialSchedule:
    """t_j = (ln(n0 + j))**(1/alpha); unbounded, strictly increasing."""

    alpha: float
    n0: int

    def __post_init__(self):
        if not (self.alpha > 0.0) or not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not isinstance(self.n0, int) or self.n0 < 1:
            raise ValueError(f"n0 must be an integer >= 1, got {self.n0!r}")


@dataclass(frozen=True)
class ExplicitSchedule:
    """A finite, user-supplied list of strictly increasing positive times."""

    n0: int
    times: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.n0, int) or self.n0 < 1:
            raise ValueError(f"n0 must be an integer >= 1, got {self.n0!r}")
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        prev = 0.0
        for i, t in enumerate(self.times):
            if not math.isfinite(t) or t <= prev:
                raise ValueError(
                    f"times must be strictly increasing and > 0; offending entry {i}: {t}"
                )
            prev = t


GrowthSchedule = Union[PowerExponentialSchedule, ExplicitSchedule]


def injection_time(schedule: GrowthSchedule, j: int) -> float:
    """Arrival time t_j of the j-th newcomer, j >= 1. t_0 = 0 by convention."""
    if not isinstance(j, int) or isinstance(j, bool):
        raise ValueError(f"injection index must be an integer, got {j!r}")
    if j == 0:
        return 0.0
    if j < 0:
        raise ValueError(f"injection index must be >= 0, got {j}")
    if isinstance(schedule, PowerExponentialSchedule):
        return math.log(schedule.n0 + j) ** (1.0 / schedule.alpha)
    if j > len(schedule.times):
        raise ValueError(
            f"injection index {j} out of range; schedule defines {len(schedule.times)} times"
        )
    return schedule.times[j - 1]


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
    t = float(t)
    if not (t >= 0.0):
        raise ValueError(f"time must be >= 0, got {t}")
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
