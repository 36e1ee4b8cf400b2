"""The benchmark's workloads, built from a seed, run and checked.

Each workload is the configuration of one acceptance experiment (replica
counts scaled to fit a run) driven through the public ``growpop`` API. A
workload object is built once per process (its set-up), then ``iterate`` runs
one timed iteration and returns the output of every operation, and ``check``
compares those outputs with a yardstick that does not come from the code
under test: closed forms and byte equality of repeated runs.

Functions of the package are looked up at call time (``growpop.cli.
cmd_dispatch``, not an imported name), so that a traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time

import numpy as np

import growpop
import growpop.cli


class OpError:
    """An operation that raised or exited non-zero; counts as failed."""

    def __init__(self, message: str):
        self.message = message

    def __repr__(self) -> str:
        return f"OpError({self.message!r})"


def attempt(outputs: dict, op: str, fn, *args, **kwargs) -> None:
    """Run one operation, storing its result or the error it raised."""
    try:
        outputs[op] = fn(*args, **kwargs)
    except Exception as err:  # a failing operation is a measured outcome
        outputs[op] = OpError(f"{type(err).__name__}: {err}")


def failed_ops(outputs: dict, failures: dict) -> set:
    """Operations that raised or whose output failed a check."""
    return {op for op, out in outputs.items() if isinstance(out, OpError)} | set(failures)


def _cli(argv: list[str]) -> str:
    """Run one ``growpop`` subcommand in-process; returns what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = growpop.cli.cmd_dispatch(argv)
    if code != 0:
        raise RuntimeError(f"growpop {argv[0]} exited with code {code}")
    return buf.getvalue()


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


class Regime:
    """``growpop ensemble`` at alpha = 0.5 then 1.5, constant kernel, N -> 2000."""

    name = "regime"
    why = ("headline experiment: CLI ensembles at alpha 0.5 and 1.5, N to 2000, "
           "4044 moment rows per replica, O(N) force, CSV emission")
    work_unit = "arrivals"
    alphas = (0.5, 1.5)
    n0, target, workers = 10, 2000, 2

    def __init__(self, seed: int, workdir: str, replicas: int = 8):
        self.replicas = replicas
        self.work = len(self.alphas) * replicas * (self.target - self.n0)
        self.paths = {}
        for alpha in self.alphas:
            config = {
                "dim": 1,
                "kernel": {"type": "constant", "c": 1.0},
                "schedule": {"type": "power_exp", "alpha": alpha, "n0": self.n0},
                "source": {"type": "gaussian", "mean": 0.0, "sigma2": 1.0},
                "step_max": 0.01,
                "max_agents": self.target,
                "record_grid": {"type": "geometric", "points": 64, "t_first": 0.5},
                "runs": replicas,
                "master_seed": seed,
                "workers": self.workers,
            }
            cfg = _write_json(os.path.join(workdir, f"regime_{alpha}.json"), config)
            self.paths[alpha] = (cfg, os.path.join(workdir, f"regime_{alpha}.csv"))
        self.reference = {}

    def iterate(self, workers: int | None = None) -> dict:
        outputs = {}
        for alpha, (cfg, out) in self.paths.items():
            argv = ["ensemble", "--config", cfg, "--out", out]
            if workers is not None:
                argv += ["--workers", str(workers)]
            attempt(outputs, f"ensemble alpha={alpha}", _cli, argv)
        return outputs

    def check(self, outputs: dict) -> dict:
        failures, last = {}, {}
        for alpha, (_, out) in self.paths.items():
            op = f"ensemble alpha={alpha}"
            if isinstance(outputs.get(op), OpError):
                continue
            with open(out, "rb") as fh:
                data = fh.read()
            # the first checked iteration is the reference; later ones, at
            # any worker count, must reproduce it byte for byte
            if self.reference.setdefault(alpha, data) != data:
                failures[op] = "CSV bytes differ from the first iteration"
                continue
            rows = list(csv.DictReader(line for line in data.decode().splitlines()
                                       if not line.startswith("#")))
            last[alpha] = (float(rows[-1]["mean_w"]), float(rows[-1]["stderr_w"]))
        if len(last) == 2:
            (w_slow, e_slow), (w_fast, e_fast) = last[0.5], last[1.5]
            if not w_fast - w_slow >= 3.0 * math.hypot(e_slow, e_fast):
                failures["ensemble alpha=1.5"] = (
                    f"final W gap {w_fast - w_slow!r} is under 3 combined stderr")
        return failures


class Pairwise:
    """One ``run_simulation`` of the jump-audit config: rational kernel, d = 2."""

    name = "pairwise"
    why = ("the only O(N^2) path: rational kernel in d=2, 500 arrivals, pairwise "
           "force and dissipation; no ensemble, no CSV")
    work_unit = "arrivals"
    workers = 1
    n0 = 2
    rtol, atol = 1e-12, 1e-15
    # RK4 conserves the mean up to roundoff; observed drift is ~1e-16.
    mean_tol = 1e-12

    def __init__(self, seed: int, workdir: str, arrivals: int = 500):
        self.seed = seed
        self.arrivals = self.work = arrivals
        self.config = growpop.SimConfig(
            dim=2,
            kernel=growpop.rational_kernel(0.5, 0.5),
            schedule=growpop.PowerExponentialSchedule(alpha=0.5, n0=self.n0),
            source=growpop.gaussian_source((0.25, -0.5), 1.0),
            initial_opinions=np.array([[0.5, 0.0], [-0.5, 0.3]]),
            step_max=0.05,
            max_agents=self.n0 + arrivals,
        )

    def iterate(self, workers: int | None = None) -> dict:
        outputs = {}
        attempt(outputs, "run_simulation", growpop.run_simulation, self.config, self.seed)
        return outputs

    def check(self, outputs: dict) -> dict:
        series = outputs["run_simulation"]
        if isinstance(series, OpError):
            return {}
        op = "run_simulation"
        if len(series.injection_pairs) != self.arrivals:
            return {op: f"{len(series.injection_pairs)} jumps, expected {self.arrivals}"}
        for jump in series.injection_pairs:
            pred = growpop.predict_jumps(jump.pre, jump.x_new, jump.k, self.n0)
            for obs, ref in (
                (float(np.linalg.norm((jump.post.m1 - jump.pre.m1) - pred.dm1)),
                 float(np.linalg.norm(pred.dm1))),
                (abs((jump.post.m2 - jump.pre.m2) - pred.dm2), abs(pred.dm2)),
                (abs((jump.post.v - jump.pre.v) - pred.dv), abs(pred.dv)),
            ):
                if obs - self.atol > self.rtol * ref:
                    return {op: f"jump {jump.k} off its closed form by {obs!r}"}
        prev = series.rows[0].record.m1
        for row in series.rows[1:]:
            if row.event == "pre_jump":
                drift = float(np.max(np.abs(row.record.m1 - prev)))
                if not drift <= self.mean_tol:
                    return {op: f"m1 drifted by {drift!r} before arrival {row.k}"}
            prev = row.record.m1
        return {}


class Conditions:
    """``growpop conditions`` at n = 1e6 for three alphas, plus envelope and Dawson."""

    name = "conditions"
    why = ("analysis alone: condition-sum tables to n=1e6 at alpha 0.5, 1, 1.5, an "
           "envelope bound and a Dawson sweep; no simulation")
    work_unit = "terms"
    workers = 1
    expected = {0.5: "converges_c1", 1.0: "exponential_boundary", 1.5: "fails_c2"}
    n_max = 10**6
    dawson_rtol = 1e-10  # dawson_f's documented accuracy

    def __init__(self, seed: int, workdir: str):
        self.paths = {}
        for alpha in self.expected:
            config = {
                "dim": 1,
                "kernel": {"type": "rational", "a": 0.4, "b": 1.2},
                "schedule": {"type": "power_exp", "alpha": alpha, "n0": 10},
                "source": {"type": "gaussian", "mean": 0.0, "sigma2": 1.0},
                "max_agents": 2000,
                # no simulation runs here, so no record grid is asked for
                "record_grid": {"type": "explicit", "times": []},
            }
            self.paths[alpha] = _write_json(
                os.path.join(workdir, f"conditions_{alpha}.json"), config)
        rng = np.random.default_rng(seed)
        # On t_k = ln k with rate 1 the envelope is exactly c + y0 / n.
        self.times = growpop.asymptotic_injection_times(1.0)
        self.y0, self.c = rng.uniform(0.5, 2.0, size=2)
        self.spec = growpop.EnvelopeSpec(decay_rate=1.0, y0=float(self.y0),
                                         jump_bound=growpop.HarmonicScaled(c=float(self.c)))
        self.xs = [float(x) for x in np.sort(rng.uniform(0.5, 50.0, size=16))]
        self.work = None  # terms per iteration, read off the first checked tables

    def iterate(self, workers: int | None = None) -> dict:
        outputs = {}
        n = self.n_max
        for alpha, path in self.paths.items():
            attempt(outputs, f"conditions alpha={alpha}", _cli,
                    ["conditions", "--config", path, "--n-max", str(n)])
        attempt(outputs, "envelope_bound", growpop.envelope_bound, self.spec, self.times, n)
        for lam in (1.0, 2.0):
            attempt(outputs, f"condition_sum lambda={lam:g}", growpop.condition_sum,
                    lam, self.times, n)
        for p in (1.0, 2.0):
            for x in self.xs:
                attempt(outputs, f"dawson_f p={p:g} x={x!r}", growpop.dawson_f, p, 1.0, x)
        return outputs

    def check(self, outputs: dict) -> dict:
        from scipy import special  # not at the top: set-up time counts package imports only

        failures = {}
        n = self.n_max
        terms = 3 * n  # envelope plus the two boundary sums
        for alpha, want in self.expected.items():
            op = f"conditions alpha={alpha}"
            text = outputs[op]
            if isinstance(text, OpError):
                continue
            lines = text.splitlines()
            if f"classification: {want}" not in lines:
                failures[op] = f"expected 'classification: {want}' in the output"
            table = [line.split() for line in lines[1:] if line and line[0] in " 0123456789"]
            terms += sum(int(cells[0]) * (len(cells) - 1) for cells in table)
        closed = {
            "envelope_bound": self.c + self.y0 / n,
            "condition_sum lambda=1": 1.0,
            "condition_sum lambda=2": (n + 1) / (2 * n),
        }
        for op, want in closed.items():
            got = outputs[op]
            if not isinstance(got, OpError) and not abs(got - want) <= 1e-12 * max(1.0, want):
                failures[op] = f"{got!r} is not {want!r} within 1e-12"
        for p, exact in ((1.0, lambda x: -math.expm1(-x)), (2.0, special.dawsn)):
            for x in self.xs:
                op = f"dawson_f p={p:g} x={x!r}"
                got, want = outputs[op], float(exact(x))
                if not isinstance(got, OpError) and not abs(got - want) <= self.dawson_rtol * want:
                    failures[op] = f"{got!r} is not {want!r} within rtol {self.dawson_rtol}"
        if self.work is None:
            self.work = terms
        return failures


WORKLOADS = {wl.name: wl for wl in (Regime, Pairwise, Conditions)}


def _per_call_us(fn, budget_s: float = 0.15) -> float:
    """Median wall time of one call, in microseconds, over about budget_s."""
    samples = []
    stop = time.perf_counter() + budget_s
    while len(samples) < 5 or time.perf_counter() < stop:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples)) * 1e6


def layer_microbenchmarks(seed: int) -> dict:
    """Force and one RK4 step through the public ``rhs`` / ``integrate_interval``.

    Constant kernel at N = 2000, d = 1 (the regime's final size) and rational
    kernel at N = 500, d = 2 (the jump audit's final size).
    """
    rng = np.random.default_rng(seed)
    cases = {
        "constant": (growpop.constant_kernel(1.0), 2000, 1, 0.01),
        "rational": (growpop.rational_kernel(0.5, 0.5), 500, 2, 0.05),
    }
    out = {}
    for label, (kernel, n, d, h) in cases.items():
        state = growpop.SimState(t=0.0, k=0, opinions=rng.normal(size=(n, d)), dim=d)
        out[f"dynamics.rhs_us.{label}"] = _per_call_us(lambda: growpop.rhs(state, kernel))
        out[f"dynamics.rk4_step_us.{label}"] = _per_call_us(
            lambda: growpop.integrate_interval(state, kernel, h, step_max=h))
    return out
