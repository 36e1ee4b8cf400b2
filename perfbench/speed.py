"""The machine's current speed, read with fixed work that does not use growpop.

The benchmark shares its cores with other tenants, and their speed drifts by
20% and more over tens of seconds. That drift moves every timing of a run
together. ``Gauge.read`` times a fixed probe (numpy broadcasting, a Python
float loop, small stacks) right before and after each measured interval,
and ``scale`` turns an interval into seconds at reference speed: the interval
times ``NOMINAL_S`` over the mean of the two readings. The probe's code is
the benchmark's own, so a change to ``growpop`` cannot move it.

A workload that runs on several worker processes at once is gauged the same
way: one probe per worker process, all started together, combined by their
harmonic mean, since growpop's pool hands out replicas one at a time and its
throughput is the sum of the workers' speeds.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import statistics
import time

import numpy as np

# Median probe time on the 2-core Xeon host the first baseline was recorded
# on; scaled times are seconds on a machine where the probe takes this long.
NOMINAL_S = 0.033

_RNG = np.random.default_rng(12345)
_POINTS = _RNG.random((300, 2))
_FLOATS = [float(x) for x in _RNG.random(20000)]


def _probe_once() -> float:
    # Like the workloads, the probe allocates its numpy temporaries afresh:
    # on this kind of host the speed that drifts is the memory system's as
    # much as the core's, and a probe on buffers that stay in cache was
    # found not to follow the workloads' drift.
    t0 = time.perf_counter()
    for _ in range(6):
        diff = _POINTS[:, None, :] - _POINTS[None, :, :]
        weight = 1.0 / (1.0 + (diff * diff).sum(-1))
        (weight[:, :, None] * diff).sum(1)
    total = 0.0
    for x in _FLOATS:
        total += x * x
    math.fsum(_FLOATS)
    for _ in range(200):
        np.vstack([_POINTS[:50], _POINTS[50:51]])
    return time.perf_counter() - t0


def probe(start_at: float = 0.0) -> float:
    """Median of five probe runs, begun no earlier than ``start_at`` (time.time())."""
    while time.time() < start_at:
        time.sleep(0.001)
    return statistics.median(_probe_once() for _ in range(5))


@contextlib.contextmanager
def pinned():
    """Keeps this process, and the processes it starts, on one core.

    The cores of a shared machine run at different speeds at the same time,
    so a single-process workload is pinned to the core its gauge reads.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def _serve(conn) -> None:
    """Worker loop: one probe per start time received; ``None`` ends it."""
    while (start_at := conn.recv()) is not None:
        conn.send(probe(start_at))
    conn.close()


class Gauge:
    """Reads the speed of one core, or of ``parallel`` cores working at once.

    Parallel probes run in forked processes that talk over pipes, so the
    benchmark's process keeps no helper threads while growpop forks its own
    pool workers.
    """

    def __init__(self, parallel: int = 1):
        self._workers = []
        if parallel > 1:
            ctx = multiprocessing.get_context("fork")
            for _ in range(parallel):
                ours, theirs = ctx.Pipe()
                proc = ctx.Process(target=_serve, args=(theirs,), daemon=True)
                proc.start()
                theirs.close()
                self._workers.append((proc, ours))
            self.read()  # the first probe in each worker is not timed cold

    def read(self) -> float:
        if not self._workers:
            return probe()
        start_at = time.time() + 0.02  # every worker is waiting before any starts
        for _, conn in self._workers:
            conn.send(start_at)
        times = [conn.recv() for _, conn in self._workers]
        return len(times) / sum(1.0 / t for t in times)

    def close(self) -> None:
        for proc, conn in self._workers:
            conn.send(None)
            conn.close()
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._workers = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two gauge readings, at reference speed."""
    return seconds * NOMINAL_S / ((before + after) / 2.0)
