"""Moment functionals of an opinion population and their jump laws.

For opinions x_1..x_N and a target mean m the tracked functionals are

    m1 = (1/N) sum x_i                  (conserved between arrivals)
    m2 = (1/N) sum |x_i|^2
    V  = (1/N) sum |x_i - m1|^2         = m2 - |m1|^2
    W  = (1/N) sum |x_i - m|^2          = V + |m1 - m|^2
    D  = -(1/N^2) sum_ij psi(|x_j - x_i|) |x_j - x_i|^2   (dissipation, <= 0)

Between arrivals m1 is constant and d(m2)/dt = D. When the k-th newcomer X_k
joins a population of N0 + k - 1 agents, each functional jumps by a closed
form in (X_k, pre-arrival moments); ``predict_jumps`` returns those values so
simulations can be checked against them injection by injection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .kernels import Kernel, _coordinate_major, _force, _one_blas_thread
from .schedules import _integer, _number

__all__ = [
    "MomentRecord",
    "InjectionJump",
    "SeriesRow",
    "MomentSeries",
    "compute_moments",
    "dissipation_of",
    "predict_jumps",
    "JumpPrediction",
    "expected_m1_deviation",
]

# Tolerance for the standing decomposition self-checks, relative to the
# magnitude of m2. Violations indicate a bug, not a tolerance problem.
_SELF_CHECK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class MomentRecord:
    """Snapshot of the moment functionals at one instant."""

    t: float
    n: int
    m1: np.ndarray
    m2: float
    v: float
    w: float
    dissipation: float


@dataclass(frozen=True, eq=False)
class InjectionJump:
    """The two-sided records around the k-th arrival, plus the arrival."""

    k: int
    x_new: np.ndarray
    pre: MomentRecord
    post: MomentRecord


class SeriesRow(NamedTuple):
    event: str  # "record" | "pre_jump" | "post_jump"
    k: int      # arrivals applied so far (pre_jump rows: k-1 applied, index k)
    record: MomentRecord


@dataclass(eq=False)
class MomentSeries:
    """Chronological moment stream of one simulation run, one array per column.

    Rows, in time order: the record at t = 0, a record per grid time, and a
    pre_jump/post_jump pair per arrival. ``t``, ``n``, ``k`` (arrivals applied;
    a pre_jump row holds the index of the arrival about to join), ``m2``,
    ``v``, ``w``, ``dissipation`` and ``d_integral`` (the integral of D from 0
    to the row's t) have shape (rows,) and ``m1`` (rows, d); ``event`` is the
    tuple of row kinds; ``x_new`` (arrivals, d) holds the arrivals in order.

    ``rows`` and ``injection_pairs`` give the same stream as objects, built
    from the columns when first read and then kept; editing them does not
    edit the columns.
    """

    t: np.ndarray
    event: tuple[str, ...]
    k: np.ndarray
    n: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    v: np.ndarray
    w: np.ndarray
    dissipation: np.ndarray
    d_integral: np.ndarray
    x_new: np.ndarray
    seed: int

    def _record(self, i: int) -> MomentRecord:
        return MomentRecord(t=float(self.t[i]), n=int(self.n[i]), m1=self.m1[i].copy(),
                            m2=float(self.m2[i]), v=float(self.v[i]), w=float(self.w[i]),
                            dissipation=float(self.dissipation[i]))

    @cached_property
    def rows(self) -> list[SeriesRow]:
        return [SeriesRow(ev, int(kk), self._record(i))
                for i, (ev, kk) in enumerate(zip(self.event, self.k))]

    @cached_property
    def injection_pairs(self) -> list[InjectionJump]:
        pre = [i for i, ev in enumerate(self.event) if ev == "pre_jump"]
        return [InjectionJump(k=int(self.k[i]), x_new=x.copy(), pre=self._record(i),
                              post=self._record(i + 1)) for i, x in zip(pre, self.x_new)]


def compute_moments(state, kernel: Kernel, m) -> MomentRecord:
    """Moment functionals of ``state`` (anything with .t and .opinions).

    W is computed directly by summation and must agree with V + |m1 - m|^2;
    likewise V against m2 - |m1|^2. Disagreement beyond a scale-aware 1e-10
    raises: it is a standing self-check, not a recoverable condition. A
    non-finite moment fails the same checks, so an opinion that is inf or nan
    raises too.

    The mean is computed pivot-subtracted (about opinions[0]) so that an
    exactly coincident population yields exactly V = 0. The opinions (N, d)
    are taken as one coordinate-major copy (d, N), the layout of the particle
    engine, whose rows give the same moments bit for bit.
    """
    x = _coordinate_major(state.opinions)
    m1, m2, v, w = _moments(x, np.asarray(m, dtype=float))
    return MomentRecord(t=float(state.t), n=x.shape[1], m1=m1, m2=m2, v=v, w=w,
                        dissipation=dissipation_of(state.opinions, kernel))


def _moments(x: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """m1, m2, V and W of the opinions x (d, N) about the target m, with the
    self-checks of ``compute_moments``. x may be a view with strided rows: m1
    sums along rows, and ``np.vdot`` takes its operands in C order, copying a
    strided one, so each gives the bits of a contiguous copy."""
    n = x.shape[1]
    dev = np.subtract(x, x[:, :1], order="C")
    m1 = x[:, 0] + dev.sum(axis=1) / n
    m2 = float(np.vdot(x, x)) / n
    cen = x - m1[:, None]
    v = float(np.vdot(cen, cen)) / n
    off = x - m[:, None]
    w = float(np.vdot(off, off)) / n

    scale = max(1.0, abs(m2))
    # written as not (<=) so that a nan residual fails the check
    if not abs(v - (m2 - float(m1 @ m1))) <= _SELF_CHECK_TOL * scale:
        raise RuntimeError(
            f"moment self-check failed: V={v!r} vs m2-|m1|^2={m2 - float(m1 @ m1)!r}")
    if not abs(w - (v + float((m1 - m) @ (m1 - m)))) <= _SELF_CHECK_TOL * scale:
        raise RuntimeError(f"moment self-check failed: W={w!r} vs V+|m1-m|^2="
                           f"{v + float((m1 - m) @ (m1 - m))!r}")
    return m1, m2, v, w


def dissipation_of(x: np.ndarray, kernel: Kernel) -> float:
    """D = -(1/N^2) sum_ij psi(|x_j - x_i|) |x_j - x_i|^2 of the opinions x (N, d),
    taken as one coordinate-major copy (d, N).

    It is the D of the force pass, ``kernels._force``, which a run of a
    kernel with b > 0 makes at every row and RK4 stage, so such a run's D
    equals this of the same opinions bit for bit. At b = 0 D is -2aV, O(N);
    for b > 0 it is d(m2)/dt over the velocities of a pass over tiles of pair
    weights, each pair's weight computed once: N^2 / 2 weights, O(N * tile)
    memory.
    """
    with _one_blas_thread():
        return _force(_coordinate_major(x), kernel)[1]


class JumpPrediction(NamedTuple):
    dm1: np.ndarray
    dm2: float
    dv: float


def predict_jumps(record_minus: MomentRecord, x_new, k: int, n0: int) -> JumpPrediction:
    """Closed-form jumps of (m1, m2, V) when arrival k joins.

    ``record_minus`` holds the moments just before the k-th arrival (so its
    population is n0 + k - 1); ``x_new`` is the arriving opinion.
    """
    k = _integer(k, "arrival index k", 1)
    n0 = _integer(n0, "n0", 1)
    if record_minus.n != n0 + k - 1:
        raise ValueError(
            f"record population {record_minus.n} does not match n0 + k - 1 = {n0 + k - 1}"
        )
    x_new = np.asarray(x_new, dtype=float)
    m1m = np.asarray(record_minus.m1, dtype=float)
    if x_new.shape != m1m.shape:
        raise ValueError(f"x_new shape {x_new.shape} does not match mean shape {m1m.shape}")

    npop = n0 + k  # population after the arrival
    dm1 = (x_new - m1m) / npop
    dm2 = (float(x_new @ x_new) - record_minus.m2) / npop
    # nV gains g = n|x - m1|^2/(n + 1), n = npop - 1 (see ``dynamics``), so V moves by (g - V)/npop
    g = (npop - 1) * float((x_new - m1m) @ (x_new - m1m)) / npop
    dv = (g - record_minus.v) / npop
    return JumpPrediction(dm1=dm1, dm2=dm2, dv=dv)


def expected_m1_deviation(n0: int, k: int, x0, m, sigma2: float) -> float:
    """E |m1 - m|^2 after k arrivals, over the arrival draws, as a float:
    (|sum_j (x0_j - m)|^2 + k sigma2) / (n0 + k)^2.

    Arrivals are i.i.d. with mean m and E|X - m|^2 = sigma2; the initial
    opinions x0 are deterministic. Valid for every k >= 0.
    """
    n0 = _integer(n0, "n0", 1)
    k = _integer(k, "arrival count k", 0)
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    if x0.shape[0] != n0:
        raise ValueError(f"x0 has {x0.shape[0]} rows, expected n0 = {n0}")
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if m.shape != (x0.shape[1],):
        raise ValueError(f"m shape {m.shape} does not match opinion dimension {x0.shape[1]}")
    sigma2 = _number(sigma2, "sigma2", ">= 0")
    return _mean_deviation(_founders_term(x0, m), n0, k, sigma2)


def _founders_term(x0: np.ndarray, m: np.ndarray) -> float:
    """|sum_j (x0_j - m)|^2 of the founders x0 (n0, d) about the target m (d,)."""
    s0 = x0.sum(axis=0)
    return float((s0 - x0.shape[0] * m) @ (s0 - x0.shape[0] * m))


def _mean_deviation(a_const: float, n0: int, k, sigma2: float):
    """E |m1 - m|^2 after k arrivals, (a_const + k sigma2) / (n0 + k)^2, for an
    int k or an integer array of them; a_const is the ``_founders_term``."""
    return (a_const + k * sigma2) / (n0 + k) ** 2.0
