"""Ensembles over the arrival randomness.

The only randomness in a run is the sequence of incoming opinions, so an
ensemble is a set of runs of one SimConfig under seeds derived from a master
seed by a counter-mixing construction (SplitMix64 finalizer over a Weyl
sequence): distinct run indices and distinct master seeds can never collide.
Runs go to the engine in blocks of consecutive run indices: one block in
this process for the constant kernel, one block per worker process for any
other. A failure names the run index and seed of its replica, or, when a
worker dies, those of its block.

All runs of a config share the record timeline exactly (the schedule and the
record grid are deterministic), so per-row sample means and standard errors
are well defined. Aggregation order is by run index regardless of worker
count, which makes ensemble output bit-identical for any level of
parallelism.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import SimConfig, _ReplicaError, _run_block

__all__ = [
    "derive_run_seed",
    "EnsembleStats",
    "run_ensemble",
    "ensemble_statistic",
    "estimated_jump_means",
]

_MASK64 = (1 << 64) - 1
_WEYL = 0x9E3779B97F4A7C15  # odd, so the counter sequence is injective mod 2^64


def _mix64(z: int) -> int:
    """SplitMix64 finalizer; a bijection on 64-bit integers."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Per-run seed: collision-free in the run index and in the master seed.

    For a fixed master seed the map index -> seed is injective (odd Weyl
    increment composed with a bijective mixer); for a fixed index, distinct
    64-bit master seeds give distinct seeds.
    """
    if not isinstance(master_seed, int) or isinstance(master_seed, bool):
        raise ValueError(f"master_seed must be an integer, got {master_seed!r}")
    if not isinstance(run_index, int) or isinstance(run_index, bool) or run_index < 0:
        raise ValueError(f"run_index must be an integer >= 0, got {run_index!r}")
    base = _mix64(master_seed & _MASK64)
    return _mix64((base + ((run_index + 1) * _WEYL)) & _MASK64)


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
    config, start, seeds = task
    try:
        tl, cols = _run_block(config, seeds)
    except _ReplicaError as err:
        raise RuntimeError(f"ensemble run {start + err.replica} (seed {seeds[err.replica]}) "
                           f"failed: {err}") from err
    except Exception as err:
        raise RuntimeError(f"ensemble {_runs(start, seeds)} failed: {err}") from err
    return tl.t, tl.event, tl.k, cols["w"], cols["v"], cols["m1"]


def _stack(results, runs: int):
    """The timeline t, event, k every block must share, then w and v as (runs,
    rows) arrays and m1 as (runs, rows, d), filled in run-index order."""
    start = 0
    for t_b, event_b, k_b, *cols in results:
        if start == 0:
            t, event, k = t_b, event_b, k_b
            w, v, m1 = (np.empty((runs,) + col.shape[1:]) for col in cols)
        elif event_b != event or not np.array_equal(t_b, t) or not np.array_equal(k_b, k):
            raise RuntimeError(f"run {start} produced a different record timeline than run 0")
        stop = start + cols[0].shape[0]
        w[start:stop], v[start:stop], m1[start:stop] = cols
        start = stop
    return t, event, k, w, v, m1


def _pooled(tasks, workers: int):
    """Block results in task order from a process pool. A dead worker fails
    every block not yet done; the first of them is reported with its runs and
    seeds."""
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        futures = [pool.submit(_run_task, task) for task in tasks]
        for (_, start, seeds), future in zip(tasks, futures):
            try:
                yield future.result()
            except BrokenProcessPool as err:
                raise RuntimeError(f"ensemble {_runs(start, seeds)} lost their worker: "
                                   f"{err}") from err


def run_ensemble(config: SimConfig, runs: int, master_seed: int,
                 workers: int = 1) -> EnsembleStats:
    """Run ``runs`` independent replicas and aggregate moment statistics.

    Replica i uses seed derive_run_seed(master_seed, i). A constant kernel's
    replicas run as one block in this process, whatever ``workers``; any other
    kernel's are cut into blocks of ceil(runs / workers) consecutive run
    indices, each run by one call of the block engine, in a process of its own
    when there is more than one block. Results are reduced in run-index order,
    and a replica's result does not depend on its block, so the statistics do
    not depend on the worker count.
    """
    if not isinstance(runs, int) or runs < 2:
        raise ValueError(f"runs must be an integer >= 2, got {runs!r}")
    if not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")

    seeds = [derive_run_seed(master_seed, i) for i in range(runs)]
    # the constant kernel's engine does O(d) work per replica and event, less
    # than a worker process costs to start, so its runs stay in one block here
    size = runs if config.kernel.kind == "constant" else math.ceil(runs / workers)
    tasks = [(config, i, seeds[i:i + size]) for i in range(0, runs, size)]
    results = map(_run_task, tasks) if len(tasks) == 1 else _pooled(tasks, workers)
    t, event, k, w, v, m1 = _stack(results, runs)

    diff = m1 - config.source.mean_vector
    # |m1 - m|^2 row by row as a (1, d) @ (d, 1) product: the rounding of diff @ diff
    dev = (diff[..., None, :] @ diff[..., :, None])[..., 0, 0]
    scale = 1.0 / math.sqrt(runs)

    return EnsembleStats(
        grid=t,
        event=event,
        k=k,
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
    if not isinstance(at_k, int) or isinstance(at_k, bool) or at_k < 0:
        raise ValueError(f"at_k must be an integer >= 0, got {at_k!r}")
    if at_k == 0:
        idx = 0
        if stats.event[0] != "record" or stats.k[0] != 0:
            raise RuntimeError("ensemble timeline does not start at the t=0 record")
    else:
        hits = [i for i, (ev, kk) in enumerate(zip(stats.event, stats.k))
                if ev == "post_jump" and kk == at_k]
        if not hits:
            raise ValueError(f"ensemble holds no arrival with index {at_k}")
        idx = hits[0]
    mean_name, err_name = _STATS[which]
    return float(getattr(stats, mean_name)[idx]), float(getattr(stats, err_name)[idx])


def estimated_jump_means(stats: EnsembleStats) -> np.ndarray:
    """Ensemble mean V-jump per arrival: E[V(t_k+) - V(t_k-)], k = 1..K.

    Suitable (via absolute values) as an ExplicitJumps envelope bound built
    from measured jump expectations.
    """
    event = np.array(stats.event)
    pre, post = np.flatnonzero(event == "pre_jump"), np.flatnonzero(event == "post_jump")
    if not (np.array_equal(post, pre + 1)
            and np.array_equal(stats.k[pre], np.arange(1, pre.size + 1))):
        raise RuntimeError("ensemble timeline is missing arrival rows")
    return stats.mean_v[post] - stats.mean_v[pre]
