"""Ensembles over the arrival randomness.

The only randomness in a run is the sequence of incoming opinions, so an
ensemble is a set of runs of one SimConfig under seeds derived from a master
seed by a counter-mixing construction (SplitMix64 finalizer over a Weyl
sequence): distinct run indices and master seeds in [0, 2^64) never collide.
All runs of a config share the record timeline exactly (the schedule and the
record grid are deterministic), so per-row sample means and standard errors
are well defined. ``run_ensemble`` builds it once, in the calling process,
before any run: a config whose timeline cannot be built raises the same
ValueError as ``run_simulation``, naming no run, and starts no worker.

Runs go to the engine in blocks of consecutive run indices on that timeline:
one block in this process for a kernel with b = 0, the constant kernel, one
block per worker process for b > 0. A failure names the run index and seed of
its replica, or, when a worker dies, those of its block. Aggregation order is
by run index regardless of worker count, which makes ensemble output
bit-identical for any level of parallelism.

For a kernel with b = 0, ``expected_moments`` gives the exact expectations that
an ensemble's ``mean_v`` and ``mean_w`` estimate, row by row, with no
sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (SimConfig, _ReplicaError, _decayed_sums, _founders, _run_block,
                       _timeline)
from .observables import _founders_term, _mean_deviation
from .schedules import _integer

__all__ = [
    "derive_run_seed",
    "EnsembleStats",
    "run_ensemble",
    "ensemble_statistic",
    "expected_moments",
]

_MASK64 = (1 << 64) - 1
_WEYL = 0x9E3779B97F4A7C15  # odd, so the counter sequence is injective mod 2^64


def _mix64(z: int) -> int:
    """SplitMix64 finalizer; a bijection on 64-bit integers."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _uint64(value, name: str) -> int:
    """``value`` as an integer in [0, 2^64), where 64-bit mixing folds no two into one."""
    if (out := _integer(value, name, 0)) > _MASK64:
        raise ValueError(f"{name} must be an integer < 2**64, got {value!r}")
    return out


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Per-run seed: collision-free in the run index and in the master seed.

    For a fixed master seed the map index -> seed is injective (odd Weyl
    increment composed with a bijective mixer); for a fixed index, distinct
    master seeds give distinct seeds. An argument outside [0, 2^64) raises.
    """
    base = _mix64(_uint64(master_seed, "master_seed"))
    return _mix64((base + ((_uint64(run_index, "run_index") + 1) * _WEYL)) & _MASK64)


@dataclass(eq=False)
class EnsembleStats:
    """Per-row ensemble means and standard errors on the shared timeline.

    Rows follow the single-run output stream: the t = 0 record, grid records,
    and both sides of every arrival. ``event`` and ``k`` tag each row exactly
    like the single-run series, so post-arrival rows can be selected by
    arrival index instead of by floating-point time.
    """

    grid: np.ndarray       # row times
    event: tuple[str, ...]
    k: np.ndarray          # arrival index per row (records: arrivals so far)
    mean_w: np.ndarray
    stderr_w: np.ndarray
    mean_v: np.ndarray
    stderr_v: np.ndarray
    mean_m1_dev: np.ndarray
    stderr_m1_dev: np.ndarray
    runs: int
    master_seed: int


def _runs(start: int, seeds) -> str:
    return f"runs {start}-{start + len(seeds) - 1} (seeds {', '.join(map(str, seeds))})"


def _run_task(task):
    """One block of replicas, reduced to the columns the ensemble reads. A
    failure names its replica's run index and seed, or else the block's."""
    config, tl, start, seeds = task
    try:
        cols = _run_block(config, tl, seeds)
    except _ReplicaError as err:
        raise RuntimeError(f"ensemble run {start + err.replica} (seed {seeds[err.replica]}) "
                           f"failed: {err}") from err
    except Exception as err:
        raise RuntimeError(f"ensemble {_runs(start, seeds)} failed: {err}") from err
    return cols["w"], cols["v"], cols["m1"]


def _blocks(tasks, workers: int):
    """Block results in task order: one block runs in this process, more in a
    process pool. A dead worker fails every block not yet done; the first of
    them is reported with its runs and seeds."""
    if len(tasks) == 1:
        yield _run_task(tasks[0])
        return
    # here, not at the top: the pool pulls in multiprocessing, which only a
    # many-block ensemble needs
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        futures = [pool.submit(_run_task, task) for task in tasks]
        for (*_, start, seeds), future in zip(tasks, futures):
            try:
                yield future.result()
            except BrokenProcessPool as err:
                raise RuntimeError(f"ensemble {_runs(start, seeds)} lost their worker: "
                                   f"{err}") from err


def run_ensemble(config: SimConfig, runs: int, master_seed: int,
                 workers: int = 1) -> EnsembleStats:
    """Run ``runs`` independent replicas and aggregate moment statistics.

    Replica i uses seed derive_run_seed(master_seed, i). The shared timeline
    is built first, so a config fault raises as in ``run_simulation``. At
    b = 0, the constant kernel, the replicas run as one block in this process,
    whatever ``workers``; at b > 0 they are cut into blocks of
    ceil(runs / workers) consecutive run indices, each run by one call of the
    block engine, in a process of its own when there is more than one block.
    Results are reduced in run-index order, and a replica's result does not
    depend on its block, so the statistics do not depend on the worker count.
    """
    runs = _integer(runs, "runs", 2)
    workers = _integer(workers, "workers", 1)

    seeds = [derive_run_seed(master_seed, i) for i in range(runs)]
    tl = _timeline(config)
    # the exact engine of b = 0 does O(d) work per replica and event, less than
    # a worker process costs to start, so its runs stay in one block here
    size = runs if config.kernel.b == 0.0 else math.ceil(runs / workers)
    tasks = [(config, tl, i, seeds[i:i + size]) for i in range(0, runs, size)]
    # C order whatever the blocks' layout: the reductions over runs then sum in
    # one order for any block size
    w, v, m1 = (np.ascontiguousarray(np.concatenate(cols))
                for cols in zip(*_blocks(tasks, workers)))

    diff = m1 - config.source.mean_vector
    # |m1 - m|^2 row by row as a (1, d) @ (d, 1) product: the rounding of diff @ diff
    dev = (diff[..., None, :] @ diff[..., :, None])[..., 0, 0]
    scale = 1.0 / math.sqrt(runs)

    return EnsembleStats(
        grid=tl.t, event=tl.event, k=tl.k,
        mean_w=w.mean(axis=0),
        stderr_w=w.std(axis=0, ddof=1) * scale,
        mean_v=v.mean(axis=0),
        stderr_v=v.std(axis=0, ddof=1) * scale,
        mean_m1_dev=dev.mean(axis=0),
        stderr_m1_dev=dev.std(axis=0, ddof=1) * scale,
        runs=runs,
        master_seed=int(master_seed),
    )


_STATS = {
    "w": ("mean_w", "stderr_w"),
    "v": ("mean_v", "stderr_v"),
    "m1_dev": ("mean_m1_dev", "stderr_m1_dev"),
}


def ensemble_statistic(stats: EnsembleStats, which: str, at_k: int) -> tuple[float, float]:
    """(estimate, stderr) of a functional right after arrival at_k.

    at_k = 0 selects the initial record at t = 0; at_k >= 1 the post-arrival
    row of that arrival index.
    """
    if which not in _STATS:
        raise ValueError(f"unknown statistic {which!r}; choose from {sorted(_STATS)}")
    at_k = _integer(at_k, "at_k", 0)
    if at_k > int(stats.k[-1]):
        raise ValueError(f"ensemble holds no arrival with index {at_k}")
    # k never decreases along the rows, and the first row holding k >= 1 is
    # arrival k's pre_jump row, so its post_jump row is the next one
    idx = int(np.searchsorted(stats.k, at_k)) + (at_k > 0)
    mean_name, err_name = _STATS[which]
    return float(getattr(stats, mean_name)[idx]), float(getattr(stats, err_name)[idx])


def expected_moments(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact E V and E W over the arrival draws, on the rows that
    ``run_simulation(config, seed)`` writes, for a kernel with b = 0, the
    constant c = a.

    S = nV, the sum of squared deviations, follows the engine's recursion
    (``dynamics``), and each step is linear in S with a new opinion x drawn
    independently of the past, so E S follows the recursion's expectation:

    * it starts at the founders' S, and a flow span tau scales it by
      e^{-2c tau};
    * arrival k to n agents adds n E|x - m1|^2 / (n + 1) = n (sigma2 +
      e_{k-1}) / (n + 1), with e_j = E|m1 - m|^2 after j arrivals, the
      ``expected_m1_deviation`` of the founders;
    * at every row E V = E S / n and E W = E V + e.

    E S is the engine's decayed prefix pass (``dynamics._decayed_sums``) from
    the engine's founders' S (``dynamics._founders``), over one replica whose
    jumps are these expected ones, so a row before the first arrival holds the
    engine's V bit for bit. sigma2 = E|x - m|^2 is the
    source's covariance trace for every family.
    A kernel with b > 0 raises ValueError.
    """
    if config.kernel.b != 0.0:
        raise ValueError(f"exact expectations need a constant kernel, got b = {config.kernel.b!r}")
    c = config.kernel.a
    sigma2 = config.source.sigma2
    x0 = config.initial_opinions
    n0 = x0.shape[0]
    tl = _timeline(config)

    a_const = _founders_term(x0, config.source.mean_vector)
    # arrival k joins n = n0 + k - 1 agents, with e_{k-1} before it
    n = np.arange(n0, tl.n[-1])
    jumps = n / (n + 1) * (sigma2 + _mean_deviation(a_const, n0, n - n0, sigma2))
    v = _decayed_sums(c, tl, _founders(x0)[2], jumps[None, :])[0] / tl.n
    return v, v + _mean_deviation(a_const, n0, tl.n - n0, sigma2)
