"""Distributions for incoming opinions.

Every source is parameterized by its mean vector m and the trace of its
covariance, sigma2 = E|X - m|^2. The three families share that normalization
so ensemble statistics of the mean and variance functionals depend on the
source only through (m, sigma2):

* ``gaussian``: isotropic normal, covariance (sigma2/d) * I,
* ``uniform``: independent coordinates uniform on a centered box with total
  variance sigma2,
* ``two_point``: m +/- u with equal probability, |u|^2 = sigma2 (u along the
  first coordinate axis).

sigma2 = 0 is allowed and degenerates every family to a point mass at m.
``OpinionSource`` checks its fields when it is built, so a source that exists
can be drawn from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedules import _number

__all__ = ["OpinionSource", "gaussian_source", "uniform_source"]


@dataclass(frozen=True)
class OpinionSource:
    """A family ``kind`` ("gaussian", "uniform" or "two_point") with mean
    ``mean`` and total variance ``sigma2``.

    Each field is checked when it is built, and a bad one raises a ValueError
    naming it: ``mean``, a finite number or a nonempty sequence of finite
    numbers, is stored as a tuple of floats, and ``sigma2`` as a float,
    finite and >= 0.
    """

    kind: str
    mean: tuple[float, ...]
    sigma2: float

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _FAMILIES):
            raise ValueError(f"kind must be one of {', '.join(_FAMILIES)}, got {self.kind!r}")
        coords = (self.mean,) if np.ndim(self.mean) == 0 else self.mean
        object.__setattr__(self, "mean", tuple(_number(c, "mean") for c in coords))
        if not self.mean:
            raise ValueError("mean must have at least one coordinate")
        object.__setattr__(self, "sigma2", _number(self.sigma2, "sigma2", ">= 0"))

    @property
    def dim(self) -> int:
        return len(self.mean)

    @property
    def mean_vector(self) -> np.ndarray:
        return np.array(self.mean, dtype=float)


def gaussian_source(mean, sigma2: float) -> OpinionSource:
    return OpinionSource("gaussian", mean, sigma2)


def uniform_source(mean, sigma2: float) -> OpinionSource:
    return OpinionSource("uniform", mean, sigma2)


def _gaussian(m: np.ndarray, s2: float, rng: np.random.Generator, count: int) -> np.ndarray:
    return m + rng.normal(0.0, math.sqrt(s2 / m.size), size=(count, m.size))


def _uniform(m: np.ndarray, s2: float, rng: np.random.Generator, count: int) -> np.ndarray:
    half = math.sqrt(3.0 * s2 / m.size)
    return m + rng.uniform(-half, half, size=(count, m.size))


def _two_point(m: np.ndarray, s2: float, rng: np.random.Generator, count: int) -> np.ndarray:
    # a fair sign on a fixed offset along the first axis
    sign = np.where(rng.integers(0, 2, size=count) == 1, 1.0, -1.0)
    x = np.tile(m, (count, 1))
    x[:, 0] += sign * math.sqrt(s2)
    return x


# Each family's draw by its name, the ``kind`` of an ``OpinionSource``: the
# one list of the kinds a source may have.
_FAMILIES = {"gaussian": _gaussian, "uniform": _uniform, "two_point": _two_point}


def _draw_incoming(source: OpinionSource, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` incoming opinions, shape (count, d), in one call on rng.

    Row j is bit for bit what the j-th of ``count`` successive one-row calls
    on the same generator draws: numpy fills a (count, d) request in the
    order of ``count`` requests of d values.
    """
    return _FAMILIES[source.kind](source.mean_vector, source.sigma2, rng, count)
