"""Interaction weights with certified global bounds.

A kernel maps the distance r = |x_j - x_i| between two opinions to a positive
coupling weight psi(r). Every instance carries its own infimum, supremum and a
Lipschitz constant as certified metadata, so downstream bounds (condition
sums, envelopes) never have to re-derive them: a future kernel family only
needs to ship correct numbers here.

Two families are built in:

* ``constant``: psi(r) = c,
* ``rational``: psi(r) = a + b / (1 + r^2), decaying from a+b toward a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Kernel",
    "constant_kernel",
    "rational_kernel",
]

# max_r |d/dr b/(1+r^2)| = b * 3*sqrt(3)/8, attained at r = 1/sqrt(3)
_RATIONAL_SLOPE = 3.0 * math.sqrt(3.0) / 8.0

# Rows per tile of the pair sums; a tile's temporaries are (rows, N). Of 8 to
# 128 rows, 32 ran the pairwise workload (N to 502, d = 2) fastest.
_TILE_ROWS = 32


@dataclass(frozen=True)
class Kernel:
    """Symmetric coupling weight psi with certified bounds.

    Attributes
    ----------
    kind : "constant" or "rational"
    coef : family coefficients, (c,) or (a, b)
    psi_star : certified global infimum of psi on [0, inf)
    psi_max : certified global supremum
    lipschitz : certified Lipschitz constant of psi on [0, inf)
    """

    kind: str
    coef: tuple[float, ...]
    psi_star: float
    psi_max: float
    lipschitz: float

    def __call__(self, r):
        """psi at distance(s) r >= 0: scalars map to floats, arrays to arrays.

        Negative distances are a domain error. The formula is written out
        here, apart from ``eval_squared``, so tests can use one to check the
        other.
        """
        arr = np.asarray(r, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("kernel distance must be nonnegative")
        if self.kind == "constant":
            out = np.full_like(arr, self.coef[0])
        else:
            a, b = self.coef
            out = a + b / (1.0 + arr * arr)
        if arr.ndim == 0:
            return float(out)
        return out

    def eval_squared(self, r2):
        """psi evaluated at distance sqrt(r2); skips the square root.

        Both built-in families depend on the distance only through its
        square, so pairwise force loops can feed squared distances directly.
        """
        if self.kind == "constant":
            c = self.coef[0]
            if np.isscalar(r2):
                return c
            return np.full_like(np.asarray(r2, dtype=float), c)
        a, b = self.coef
        return a + b / (1.0 + r2)


def _pair_tiles(y: np.ndarray, kernel: Kernel):
    """Pair weights of ``kernel`` over the points ``y`` (N, d), by row tiles.

    Yields ``(rows, w, d2)`` for consecutive slices of at most ``_TILE_ROWS``
    rows: ``d2[i, j] = |y_j - y_i|^2`` for i in the tile and every j, and
    ``w = kernel.eval_squared(d2)``, both (rows, N). Each squared distance is
    summed one coordinate at a time in the same order, and fl(a - b)^2 equals
    fl(b - a)^2, so the weight matrix the tiles make up is symmetric bit for
    bit. Memory is O(rows * N) per call, whatever d.
    """
    n = y.shape[0]
    coords = y.T.copy()  # one contiguous row per coordinate
    for lo in range(0, n, _TILE_ROWS):
        rows = slice(lo, min(lo + _TILE_ROWS, n))
        d2 = None
        for col in coords:
            diff = col - col[rows, None]
            diff *= diff
            if d2 is None:
                d2 = diff
            else:
                d2 += diff
        yield rows, kernel.eval_squared(d2), d2


def constant_kernel(c: float) -> Kernel:
    """Distance-independent coupling psi(r) = c, c > 0."""
    c = float(c)
    if not (c > 0.0) or not math.isfinite(c):
        raise ValueError(f"c must be finite and > 0, got {c}")
    return Kernel(kind="constant", coef=(c,), psi_star=c, psi_max=c, lipschitz=0.0)


def rational_kernel(a: float, b: float) -> Kernel:
    """Decaying coupling psi(r) = a + b/(1 + r^2) with floor a > 0, b >= 0."""
    a, b = float(a), float(b)
    if not (a > 0.0) or not math.isfinite(a):
        raise ValueError(f"a must be finite and > 0, got {a}")
    if not (b >= 0.0) or not math.isfinite(b):
        raise ValueError(f"b must be finite and >= 0, got {b}")
    return Kernel(
        kind="rational",
        coef=(a, b),
        psi_star=a,
        psi_max=a + b,
        lipschitz=b * _RATIONAL_SLOPE,
    )
