"""Interaction weights with certified global bounds.

A kernel maps the distance r = |x_j - x_i| between two opinions to a positive
coupling weight psi(r). The one built-in formula is

    psi(r) = a + b / (1 + r^2),    a > 0, b >= 0,

decaying from psi_max = a + b at r = 0 toward psi_star = a. b = 0 is the
constant kernel psi = a (``constant_kernel``); ``rational_kernel`` takes any
b >= 0. The bounds are properties of (a, b), so downstream bounds (condition
sums, envelopes) never have to re-derive them.

The module also holds the one pass over the pairs of opinions, ``_force``,
which gives the velocities and the dissipation together. It takes the
opinions coordinate-major, (d, N), one row per coordinate, as the particle
engine keeps them, and returns the velocities alike; the public entry points
(``dynamics.rhs``, ``integrate_interval``, ``observables.compute_moments``
and ``dissipation_of``) take and return (N, d) and transpose at the
boundary, each through ``_coordinate_major``, which checks the shape. Every
O(N) sweep thus runs along contiguous rows of length N. At b = 0 the pass is
O(N). For b > 0 it weighs each unordered pair once, in tiles of the upper
triangle (``_pair_tiles``), and uses each weight in both directions, so the
pair terms are antisymmetric by construction; ``_force`` states its products.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from dataclasses import dataclass

import numpy as np

from .schedules import _number

__all__ = [
    "Kernel",
    "constant_kernel",
    "rational_kernel",
]

# Pair-matrix rows per tile, each held as a column: a tile is one buffer of
# (N - lo, rows) weights, so 128 rows take the memory that two buffers of 64
# took. On the pairwise workload (N to 502, d = 2, one core of a 2-core Xeon,
# gauge-scaled `perfbench/run.py` wall_s, five alternating pairs of 20 s runs),
# a run took 0.526-0.543 s at 128 rows (median 0.539 s) and 0.567-0.634 s at
# 64 (median 0.598 s). In-process timings of 64 to 256 rows on one core
# moved 0.72-1.24x per round, too widely to rank them. A larger size weighs
# more pairs twice, N * rows / 2 in all, and widens the strided old-agent view
# of the tile ``old`` cuts.
_TILE_ROWS = 128


@dataclass(frozen=True)
class Kernel:
    """Symmetric coupling weight psi(r) = a + b / (1 + r^2), a > 0, b >= 0;
    b = 0 is the constant kernel psi = a.

    ``psi_star`` = a and ``psi_max`` = a + b are its certified global infimum
    and supremum on [0, inf). Both fields are checked, and stored as floats,
    when it is built: a non-finite or out-of-range one raises a ValueError
    naming it.
    """

    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", _number(self.a, "a", "> 0"))
        object.__setattr__(self, "b", _number(self.b, "b", ">= 0"))

    @property
    def psi_star(self) -> float:
        return self.a

    @property
    def psi_max(self) -> float:
        return self.a + self.b

    def eval_squared(self, r2, out=None):
        """psi evaluated at distance sqrt(r2); skips the square root.

        psi depends on the distance only through its square, so pairwise
        force loops can feed squared distances directly. With ``out``, an
        array of r2's shape, the weights are written into it and it is
        returned; ``out`` may be r2 itself, which the weights then overwrite.
        The operations run in the same order, a + b / (1 + r2), so either way
        gives the same bits.
        """
        if out is None:
            return self.a + self.b / (1.0 + r2)
        np.add(1.0, r2, out=out)
        np.divide(self.b, out, out=out)
        return np.add(self.a, out, out=out)


def _coordinate_major(opinions) -> np.ndarray:
    """The opinions (N, d), checked, as a new C-ordered (d, N) array for ``_force``."""
    x = np.asarray(opinions, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"opinions must be a nonempty (N, d) array, got shape {x.shape}")
    return np.array(x.T, order="C")


def _force(x: np.ndarray, kernel: Kernel, old: int | None = None
           ) -> tuple[np.ndarray, float, float | None]:
    """The one pass over the pairs of opinions x (d, N), one row per
    coordinate: their velocities (d, N) under the flow, dx_i/dt = (1/N) sum_j
    psi(|x_j - x_i|) (x_j - x_i), and the dissipation D = -(1/N^2) sum_ij
    psi(|x_j - x_i|) |x_j - x_i|^2. With ``old``, also the D of the first
    ``old`` agents alone, equal to this pass's D of x[:, :old] bit for bit
    (else None); ``old`` changes nothing else. x may be a view with strided
    rows, such as the prefix of a wider buffer: every sum over agents runs
    along a row or over a fresh array, so it gives the bits of a contiguous
    copy.

    Both work on y = x - x[:, 0], so exact consensus (y = 0) is a fixed point
    with D = 0. At b = 0 the velocities are a (m1 - x_i) and D is -2aV, O(N).
    Otherwise column i of the velocities is ((W y)_i - (sum_j W_ij) y_i) / N. A
    tile of ``_pair_tiles`` holds the pair-matrix rows [lo, hi) as its nr
    columns, against the rows [lo, N), so each weight is computed once and
    used in both directions. The pair sums take the whole Gram operand left =
    [|y|^2, 1, y] (N, d + 2) as their right operand, ``acc`` = [W |y|^2 | row
    sums of W | W y]: ``w.T @ left[lo:]`` gives the tile's rows, and ``w[nr:]
    @ left[lo:hi]`` the mirrored terms for rows hi..N. Nothing reads the W
    |y|^2 column; with four columns OpenBLAS's products run faster than with
    the three that are read. D is d(m2)/dt along the flow, (2/N) sum_i (y_i -
    mean y) . v_i, an O(N) sum over the velocities (``_velocities``). The old
    agents' ``acc`` is the same two products over their own rows of each
    tile, ``w[:old - lo, :m]`` and ``w[nr:old - lo]``, which are the tiles
    their own pass makes. That is N^2 / 2 weights, in O(N * tile) memory.
    """
    n = x.shape[1]
    y = np.subtract(x, x[:, :1], order="C")
    if kernel.b == 0.0:
        towards_mean = _towards_mean(y)
        a = kernel.a
        d_old = None if old is None else _force(x[:, :old], kernel)[1]
        return a * towards_mean, -2.0 * a * float(np.vdot(towards_mean, towards_mean)) / n, d_old
    # sum_j w_ij (y_j - y_i) = (W y)_i - (sum_j w_ij) y_i
    left, right = _gram_operands(y)
    acc = np.zeros(left.shape)  # [W |y|^2 | row sums of W | W y]
    acc_old = None if old is None else np.zeros((old, left.shape[1]))
    for rows, w in _pair_tiles(left, right, kernel):
        lo, hi = rows.start, rows.stop
        nr = hi - lo
        acc[rows] += w.T @ left[lo:]
        if hi < n:
            acc[hi:] += w[nr:] @ left[rows]
        if old is not None and lo < old:
            # the old agents' part of the tile is the tile their own pass
            # makes, and takes the same products in the same order
            m = min(hi, old) - lo
            acc_old[lo:lo + m] += w[:old - lo, :m].T @ left[lo:old]
            if hi < old:
                acc_old[hi:] += w[nr:old - lo] @ left[rows]
    velocities, total = _velocities(acc, y)
    return velocities, total, None if old is None else _velocities(acc_old, y[:, :old])[1]


def _velocities(acc: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """The velocities (d, N) of the points y (d, N) from their [W |y|^2 | row
    sums of W | W y] ``acc`` (N, d + 2), and D = d(m2)/dt = (2/N) sum_i (y_i -
    mean y) . v_i. In exact arithmetic the velocities sum to zero and this is
    -(1/N^2) sum_ij W_ij |y_j - y_i|^2; taking y about its mean keeps D off
    the pivot."""
    n = y.shape[1]
    v = (acc[:, 2:].T - acc[:, 1] * y) / n
    return v, 2.0 * float(np.vdot(y - y.sum(axis=1, keepdims=True) / n, v)) / n


def _towards_mean(y: np.ndarray) -> np.ndarray:
    """mean(y) - y of the pivoted opinions y = x - x[:, 0] (d, N), the
    direction of the constant kernel's flow: exactly zero at consensus."""
    return y.sum(axis=1, keepdims=True) / y.shape[1] - y


def _gram_operands(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram operands of the pivoted opinions y = x - x[:, 0] (d, N):
    left = [|y|^2, 1, y^T] (N, d + 2) and right = [1; |y|^2; -2 y] (d + 2, N),
    so that left[j] @ right[:, i] is |y_j - y_i|^2."""
    d, n = y.shape
    left, right = np.empty((n, d + 2)), np.empty((d + 2, n))
    left[:, 2:] = y.T
    left[:, 1] = right[0] = 1.0
    np.add.reduce(y * y, axis=0, out=right[1])
    left[:, 0] = right[1]
    np.multiply(y, -2.0, out=right[2:])
    return left, right


def _pair_tiles(left: np.ndarray, right: np.ndarray, kernel: Kernel):
    """Pair weights of ``kernel`` over the points y of the Gram operands of
    ``_gram_operands``, by tiles of the upper triangle stored column-major, for
    ``_force``, the one pass that sums them.

    Yields ``(rows, w)`` for consecutive slices [lo, hi) of at most
    ``_TILE_ROWS`` pair-matrix rows, each held as a column: ``w[j - lo, i -
    lo] = psi(|y_j - y_i|)`` for i in the tile and j in [lo, N), (N - lo, hi -
    lo). A pair of agents in different tiles is in the earlier tile only, so
    each weight is computed once.

    A tile is one matrix product with k = d + 2, ``left[lo:] @ right[:,
    rows]``, the squared distances by the Gram identity |y_j - y_i|^2 = |y_j|^2
    + |y_i|^2 - 2 y_j . y_i, which ``kernel.eval_squared`` then turns into
    weights in place. The squared distances are within a few eps (|y_i|^2 +
    |y_j|^2) (Higham, Accuracy and Stability of Numerical Algorithms, 3.1), so
    a tiny distance may round below zero, and exact consensus gives weights of
    exactly psi(0). A tile's own (nr, nr) block, its first nr rows, holds its
    pairs both ways and is symmetric bit for bit: either way a pair adds
    |y_i|^2 + |y_j|^2, then the same products -2 y_i[c] y_j[c], one coordinate
    at a time in the same order. The tiles are views of one flat buffer
    allocated once per call, so a yielded ``w`` is valid only until the next
    tile is asked for: copy it to keep it.
    """
    n = left.shape[0]
    flat = np.empty(min(_TILE_ROWS, n) * n)
    for lo in range(0, n, _TILE_ROWS):
        rows = slice(lo, min(lo + _TILE_ROWS, n))
        shape = (n - lo, rows.stop - lo)
        w = np.matmul(left[lo:], right[:, rows], out=flat[:shape[0] * shape[1]].reshape(shape))
        yield rows, kernel.eval_squared(w, out=w)


@functools.cache
def _openblas():
    """The thread-count (get, set) pair of the OpenBLAS bundled in numpy's
    wheel, which opening the library numpy loaded reaches, or None where numpy
    bundles no library with those symbols (another BLAS, or a system one)."""
    root = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
    for path in sorted(paths + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            try:
                get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run on one OpenBLAS thread, and restore the count after, also on an
    error; a no-op where ``_openblas`` finds no library. Every entry point that
    makes force passes runs under it: a block of runs, ``rhs``,
    ``integrate_interval`` and ``dissipation_of``. The passes make many small
    products, which a second thread only slows, and their bits then do not
    depend on the caller's thread count, so a run's D is ``dissipation_of`` of
    its opinions bit for bit wherever it runs. The count is the process's:
    calls from concurrent Python threads would restore it under each other."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def constant_kernel(c: float) -> Kernel:
    """Distance-independent coupling psi(r) = c, c > 0: the formula at a = c,
    b = 0."""
    return Kernel(_number(c, "c", "> 0"), 0.0)


def rational_kernel(a: float, b: float) -> Kernel:
    """Decaying coupling psi(r) = a + b/(1 + r^2) with floor a > 0, b >= 0;
    b = 0 gives ``constant_kernel(a)``."""
    return Kernel(a, b)
