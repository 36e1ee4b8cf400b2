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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedules import _number

__all__ = ["OpinionSource", "gaussian_source", "uniform_source", "two_point_source"]


@dataclass(frozen=True)
class OpinionSource:
    kind: str
    mean: tuple[float, ...]
    sigma2: float

    @property
    def dim(self) -> int:
        return len(self.mean)

    @property
    def mean_vector(self) -> np.ndarray:
        return np.array(self.mean, dtype=float)


def _make(kind: str, mean, sigma2: float) -> OpinionSource:
    mean = tuple(_number(c, "mean") for c in ((mean,) if np.ndim(mean) == 0 else mean))
    if len(mean) < 1:
        raise ValueError("mean must have at least one coordinate")
    return OpinionSource(kind=kind, mean=mean, sigma2=_number(sigma2, "sigma2", ">= 0"))


def gaussian_source(mean, sigma2: float) -> OpinionSource:
    return _make("gaussian", mean, sigma2)


def uniform_source(mean, sigma2: float) -> OpinionSource:
    return _make("uniform", mean, sigma2)


def two_point_source(mean, sigma2: float) -> OpinionSource:
    return _make("two_point", mean, sigma2)


def _draw_incoming(source: OpinionSource, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` incoming opinions, shape (count, d), in one call on rng.

    Row j is bit for bit what the j-th of ``count`` successive one-row calls
    on the same generator draws: numpy fills a (count, d) request in the
    order of ``count`` requests of d values.
    """
    m = source.mean_vector
    d = m.size
    s2 = source.sigma2
    if source.kind == "gaussian":
        return m + rng.normal(0.0, math.sqrt(s2 / d), size=(count, d))
    if source.kind == "uniform":
        half = math.sqrt(3.0 * s2 / d)
        return m + rng.uniform(-half, half, size=(count, d))
    # two_point: a fair sign on a fixed offset along the first axis
    sign = np.where(rng.integers(0, 2, size=count) == 1, 1.0, -1.0)
    x = np.tile(m, (count, 1))
    x[:, 0] += sign * math.sqrt(s2)
    return x
