"""Ensembles over the arrival randomness.

The only randomness in a run is the sequence of incoming opinions, so an
ensemble is a set of runs of one SimConfig under seeds derived from a master
seed by a counter-mixing construction (SplitMix64 finalizer over a Weyl
sequence): distinct run indices and distinct master seeds can never collide.

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

from .dynamics import SimConfig, run_simulation
from .observables import MomentSeries

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


def _series_arrays(series: MomentSeries):
    """Flatten one run into (t, event, k, w, v, |m1-m|^2) row arrays."""
    m = series.target_mean
    t = np.empty(len(series.rows))
    w = np.empty(len(series.rows))
    v = np.empty(len(series.rows))
    dev = np.empty(len(series.rows))
    events = []
    ks = np.empty(len(series.rows), dtype=np.int64)
    for i, row in enumerate(series.rows):
        rec = row.record
        t[i] = rec.t
        w[i] = rec.w
        v[i] = rec.v
        diff = rec.m1 - m
        dev[i] = float(diff @ diff)
        events.append(row.event)
        ks[i] = row.k
    return t, tuple(events), ks, w, v, dev


def _run_one(task):
    config, run_index, seed = task
    try:
        series = run_simulation(config, seed)
    except Exception as err:
        raise RuntimeError(f"ensemble run {run_index} (seed {seed}) failed: {err}") from err
    return _series_arrays(series)


def run_ensemble(config: SimConfig, runs: int, master_seed: int,
                 workers: int = 1) -> EnsembleStats:
    """Run ``runs`` independent replicas and aggregate moment statistics.

    Replica i uses seed derive_run_seed(master_seed, i). With workers > 1 the
    replicas are distributed over processes; results are always reduced in
    run-index order, so the statistics do not depend on the worker count.
    """
    if not isinstance(runs, int) or runs < 2:
        raise ValueError(f"runs must be an integer >= 2, got {runs!r}")
    if not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")

    tasks = [(config, i, derive_run_seed(master_seed, i)) for i in range(runs)]
    if workers == 1:
        results = [_run_one(task) for task in tasks]
    else:
        chunk = max(1, runs // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, tasks, chunksize=chunk))

    t0, events0, ks0 = results[0][0], results[0][1], results[0][2]
    for i, res in enumerate(results[1:], start=1):
        if res[1] != events0 or not np.array_equal(res[0], t0) \
                or not np.array_equal(res[2], ks0):
            raise RuntimeError(f"run {i} produced a different record timeline than run 0")

    w = np.vstack([res[3] for res in results])
    v = np.vstack([res[4] for res in results])
    dev = np.vstack([res[5] for res in results])
    scale = 1.0 / math.sqrt(runs)

    return EnsembleStats(
        grid=t0,
        event=events0,
        k=ks0,
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
    pre = {int(kk): i for i, (ev, kk) in enumerate(zip(stats.event, stats.k))
           if ev == "pre_jump"}
    post = {int(kk): i for i, (ev, kk) in enumerate(zip(stats.event, stats.k))
            if ev == "post_jump"}
    ks = sorted(pre)
    if ks != sorted(post) or ks != list(range(1, len(ks) + 1)):
        raise RuntimeError("ensemble timeline is missing arrival rows")
    return np.array([stats.mean_v[post[k]] - stats.mean_v[pre[k]] for k in ks])
