"""Interaction weights with certified global bounds.

A kernel maps the distance r = |x_j - x_i| between two opinions to a positive
coupling weight psi(r). Every instance carries its own infimum and supremum
as certified metadata, so downstream bounds (condition sums, envelopes) never
have to re-derive them: a future kernel family only needs to ship correct
numbers here.

Two families are built in:

* ``constant``: psi(r) = c,
* ``rational``: psi(r) = a + b / (1 + r^2), decaying from a+b toward a.

The module also holds the one pass over the pairs of opinions, ``_force``,
which gives the velocities and the dissipation together. The constant kernel's
pass is O(N). For any other kernel the pass weighs each unordered pair once, in
tiles of the upper triangle (``_pair_tiles``), and uses each weight in both
directions, so the pair terms are antisymmetric by construction. A tile holds
its rows of the pair matrix as columns, so every sum of D the pass takes reads
a contiguous row prefix of it, and the differences of all coordinates come from
one exact batched matrix product with k = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedules import _number

__all__ = [
    "Kernel",
    "constant_kernel",
    "rational_kernel",
]

# Pair-matrix rows per tile, each held as a column: a tile's buffers are (d,
# N - lo, rows) and (N - lo, rows). On the pairwise workload (N to 502, d = 2,
# one core), 32 and 48 rows took 1.21-1.29x and 1.02-1.11x the time of 64, and
# 80, 96 and 128 rows 0.93-1.00x, 0.96-1.02x and 0.99-1.04x: 64 is the smallest
# size on that plateau, and a larger one only widens the strided old-agent view
# of the tile ``old`` cuts.
_TILE_ROWS = 64


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

        Negative and NaN distances are a domain error. The formula is
        written out here, apart from ``eval_squared``, so tests can use one to
        check the other.
        """
        arr = np.asarray(r, dtype=float)
        if not (arr >= 0.0).all():  # written as not (>=) so NaN fails too
            raise ValueError("kernel distance must be a number >= 0")
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
    W_ij) y_i) / N. A tile of ``_pair_tiles`` holds the pair-matrix rows [lo,
    hi) as its nr columns, against the rows [lo, N), so each weight is
    computed once and used in both directions. With y1 = [y | 1], ``w.T @
    y1[lo:]`` gives W y and the row sums for the tile's rows, and ``w[nr:] @
    y1[lo:hi]`` the mirrored terms for rows hi..N. D sums each tile both ways:
    twice its ``np.vdot`` of weights and squared distances, less its own (nr,
    nr) block ``w[:nr]``, which the tile already holds both ways. Every such
    sum reads a contiguous row prefix of the tile, as does the old agents'
    part, ``w[:old - lo]``, in every tile but the one ``old`` cuts. That is
    N^2 / 2 weights, in O(d * N * tile) memory.
    """
    n = x.shape[0]
    if kernel.kind == "constant":
        dev = x - x[0]
        towards_mean = dev.sum(axis=0) / n - dev
        c = kernel.coef[0]
        d_old = None if old is None else _force(x[:old], kernel)[1]
        return c * towards_mean, -2.0 * c * float(np.vdot(towards_mean, towards_mean)) / n, d_old
    # sum_j w_ij (y_j - y_i) = (W y)_i - (sum_j w_ij) y_i
    d = x.shape[1]
    y1 = np.empty((n, d + 1))
    y = np.subtract(x, x[0], out=y1[:, :d])
    y1[:, d] = 1.0
    acc = np.zeros((n, d + 1))  # [W y | row sums of W]
    total = pre = 0.0
    for rows, w, d2 in _pair_tiles(y, kernel):
        lo, hi = rows.start, rows.stop
        nr = hi - lo
        acc[rows] += w.T @ y1[lo:]
        if hi < n:
            acc[hi:] += w[nr:] @ y1[rows]
        total += _both_ways(w, d2, nr)
        if old is not None and lo < old:
            # the old agents' part of the tile is the tile their own pass
            # makes, and takes the same sum in the same order
            m = min(hi, old) - lo
            pre += _both_ways(w[:old - lo, :m], d2[:old - lo, :m], m)
    velocities = (acc[:, :d] - acc[:, d:] * y) / n
    return velocities, -total / (n * n), None if old is None else -pre / (old * old)


def _both_ways(w: np.ndarray, d2: np.ndarray, nr: int) -> float:
    """sum w_ij d2_ij over a tile's pairs both ways: twice the tile, less its
    own (nr, nr) block, its first nr rows, which it holds both ways already."""
    return 2.0 * float(np.vdot(w, d2)) - float(np.vdot(w[:nr], d2[:nr]))


def _pair_tiles(y: np.ndarray, kernel: Kernel):
    """Pair weights of ``kernel`` over the points ``y`` (N, d), by tiles of
    the upper triangle stored column-major, for ``_force``, the one pass that
    sums them.

    Yields ``(rows, w, d2)`` for consecutive slices [lo, hi) of at most
    ``_TILE_ROWS`` pair-matrix rows, each held as a column: ``d2[j - lo, i -
    lo] = |y_j - y_i|^2`` for i in the tile and j in [lo, N), and ``w =
    kernel.eval_squared(d2)``, both (N - lo, hi - lo). A pair of agents in
    different tiles is in the earlier tile only, so each weight is computed
    once. A tile's own (nr, nr) block, its first nr rows, holds its pairs both
    ways and is symmetric bit for bit: fl(a - b)^2 equals fl(b - a)^2, and each
    squared distance is summed one coordinate at a time in the same order.

    The differences of all d coordinates come from one batched k = 2 matrix
    product, [y_j, 1] @ [1; -y_i]. Both products are by 1.0, so exact, and one
    rounded add gives fl(y_j - y_i): the bits of a plain subtraction, at BLAS
    speed. The squares are summed into the first coordinate's slab, which is
    ``d2``. The tiles are contiguous views of two flat buffers allocated once
    per call, one of d tiles of differences and one of weights, so a yielded
    ``w`` or ``d2`` is valid only until the next tile is asked for: copy it to
    keep it. Memory is O(d * rows * N) per call.
    """
    n, d = y.shape
    lefts, rights = np.empty((d, n, 2)), np.empty((d, 2, n))
    lefts[:, :, 0] = y.T
    lefts[:, :, 1] = rights[:, 0] = 1.0
    np.negative(y.T, out=rights[:, 1])
    rows_max = min(_TILE_ROWS, n)
    diff_flat, w_flat = np.empty(d * rows_max * n), np.empty(rows_max * n)
    for lo in range(0, n, _TILE_ROWS):
        rows = slice(lo, min(lo + _TILE_ROWS, n))
        shape = (n - lo, rows.stop - lo)
        size = shape[0] * shape[1]
        diff = diff_flat[:d * size].reshape((d,) + shape)
        np.matmul(lefts[:, lo:], rights[:, :, rows], out=diff)
        np.multiply(diff, diff, out=diff)
        d2 = diff[0]
        for sq in diff[1:]:
            np.add(d2, sq, out=d2)
        yield rows, kernel.eval_squared(d2, out=w_flat[:size].reshape(shape)), d2


def constant_kernel(c: float) -> Kernel:
    """Distance-independent coupling psi(r) = c, c > 0."""
    c = _number(c, "c", "> 0")
    return Kernel(kind="constant", coef=(c,), psi_star=c, psi_max=c)


def rational_kernel(a: float, b: float) -> Kernel:
    """Decaying coupling psi(r) = a + b/(1 + r^2) with floor a > 0, b >= 0."""
    a, b = _number(a, "a", "> 0"), _number(b, "b", ">= 0")
    return Kernel(kind="rational", coef=(a, b), psi_star=a, psi_max=a + b)
