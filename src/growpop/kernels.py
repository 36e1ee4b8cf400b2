"""Interaction weights with certified global bounds.

A kernel maps the distance r = |x_j - x_i| between two opinions to a positive
coupling weight psi(r). Every instance carries its own infimum and supremum
as certified metadata, so downstream bounds (condition sums, envelopes) never
have to re-derive them: a future kernel family only needs to ship correct
numbers here.

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
    """

    kind: str
    coef: tuple[float, ...]
    psi_star: float
    psi_max: float

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

    def eval_squared(self, r2, out=None):
        """psi evaluated at distance sqrt(r2); skips the square root.

        Both built-in families depend on the distance only through its
        square, so pairwise force loops can feed squared distances directly.
        With ``out``, an array of r2's shape, the weights are written into it
        and it is returned; the rational family's operations run in the same
        order, a + b / (1 + r2), so either way gives the same bits.
        """
        if self.kind == "constant":
            c = self.coef[0]
            if out is not None:
                out.fill(c)
                return out
            if np.isscalar(r2):
                return c
            return np.full_like(np.asarray(r2, dtype=float), c)
        a, b = self.coef
        if out is None:
            return a + b / (1.0 + r2)
        np.add(1.0, r2, out=out)
        np.divide(b, out, out=out)
        return np.add(a, out, out=out)


def _force(x: np.ndarray, kernel: Kernel, old: int | None = None
           ) -> tuple[np.ndarray, float, float | None]:
    """The one pass over the pairs of opinions x (N, d): their velocities
    (N, d) under the flow, dx_i/dt = (1/N) sum_j psi(|x_j - x_i|) (x_j - x_i),
    and the dissipation D = -(1/N^2) sum_ij psi(|x_j - x_i|) |x_j - x_i|^2.
    With ``old``, also the D of the first ``old`` agents alone, summed over
    their own block of each tile, so it equals this pass's D of x[:old] bit for
    bit (else None).

    Both work on y = x - x[0], so exact consensus (y = 0) is a fixed point with
    D = 0. The constant kernel's velocities are c (m1 - x_i) and its D is -2cV,
    O(N). Any other kernel takes row i of the velocities as ((W y)_i - (sum_j
    W_ij) y_i) / N, one matrix product per tile of ``_pair_tiles``, and D as
    one ``np.vdot`` of the tile's weights and squared distances: O(N^2) time,
    O(N * tile) memory, whatever d.
    """
    n = x.shape[0]
    if kernel.kind == "constant":
        dev = x - x[0]
        towards_mean = dev.sum(axis=0) / n - dev
        c = kernel.coef[0]
        d_old = None if old is None else _force(x[:old], kernel)[1]
        return c * towards_mean, -2.0 * c * float(np.vdot(towards_mean, towards_mean)) / n, d_old
    # sum_j w_ij (y_j - y_i) = (W y)_i - (sum_j w_ij) y_i
    y = x - x[0]
    out = np.empty_like(y)
    total = pre = 0.0
    for rows, w, d2 in _pair_tiles(y, kernel):
        out[rows] = w @ y - w.sum(axis=1)[:, None] * y[rows]
        total += float(np.vdot(w, d2))
        if old is not None and rows.start < old:
            nr = min(rows.stop, old) - rows.start
            pre += float(np.vdot(w[:nr, :old], d2[:nr, :old]))
    return out / n, -total / (n * n), None if old is None else -pre / (old * old)


def _pair_tiles(y: np.ndarray, kernel: Kernel):
    """Pair weights of ``kernel`` over the points ``y`` (N, d), by row tiles,
    for ``_force``, the one pass that sums them.

    Yields ``(rows, w, d2)`` for consecutive slices of at most ``_TILE_ROWS``
    rows: ``d2[i, j] = |y_j - y_i|^2`` for i in the tile and every j, and
    ``w = kernel.eval_squared(d2)``, both (rows, N). Each squared distance is
    summed one coordinate at a time in the same order, and fl(a - b)^2 equals
    fl(b - a)^2, so the weight matrix the tiles make up is symmetric bit for
    bit. The tiles share three buffers allocated once per call, so a yielded
    ``w`` or ``d2`` is valid only until the next tile is asked for: copy it to
    keep it. Memory is O(rows * N) per call, whatever d.
    """
    n = y.shape[0]
    coords = y.T.copy()  # one contiguous row per coordinate
    rows_max = min(_TILE_ROWS, n)
    d2_buf, diff_buf, w_buf = (np.empty((rows_max, n)) for _ in range(3))
    for lo in range(0, n, _TILE_ROWS):
        rows = slice(lo, min(lo + _TILE_ROWS, n))
        nr = rows.stop - lo
        d2, diff, w = d2_buf[:nr], diff_buf[:nr], w_buf[:nr]
        np.subtract(coords[0], coords[0][rows, None], out=d2)
        np.multiply(d2, d2, out=d2)
        for col in coords[1:]:
            np.subtract(col, col[rows, None], out=diff)
            np.multiply(diff, diff, out=diff)
            np.add(d2, diff, out=d2)
        yield rows, kernel.eval_squared(d2, out=w), d2


def constant_kernel(c: float) -> Kernel:
    """Distance-independent coupling psi(r) = c, c > 0."""
    c = float(c)
    if not (c > 0.0) or not math.isfinite(c):
        raise ValueError(f"c must be finite and > 0, got {c}")
    return Kernel(kind="constant", coef=(c,), psi_star=c, psi_max=c)


def rational_kernel(a: float, b: float) -> Kernel:
    """Decaying coupling psi(r) = a + b/(1 + r^2) with floor a > 0, b >= 0."""
    a, b = float(a), float(b)
    if not (a > 0.0) or not math.isfinite(a):
        raise ValueError(f"a must be finite and > 0, got {a}")
    if not (b >= 0.0) or not math.isfinite(b):
        raise ValueError(f"b must be finite and >= 0, got {b}")
    return Kernel(kind="rational", coef=(a, b), psi_star=a, psi_max=a + b)
