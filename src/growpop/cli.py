"""Command-line front end and file formats.

Subcommands: simulate (one trajectory to CSV), ensemble (aggregate statistics
to CSV), conditions (condition-sum table plus classification), envelope
(decayed-recursion bound table), check (built-in oracle suite). Configs are
JSON, and this module alone reads that format: ``load_config`` checks each
field's type, and the constructor a value goes to checks its range.
Command-line flags override file fields. Exit codes: 0 success, 1 usage error,
2 runtime error.

CSV output is deterministic: UTF-8, LF newlines, floats in shortest
round-trip form (repr), and the seed surfaced in a leading "# seed=" comment,
so identical (config, seed) pairs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import (
    EnvelopeSpec,
    ExplicitJumps,
    HarmonicScaled,
    asymptotic_injection_times,
    classify_schedule,
    condition_sum,
    envelope_bound,
)
from .dynamics import (
    SimConfig,
    geometric_record_grid,
    run_simulation,
    uniform_record_grid,
    _end_time,
)
from .kernels import Kernel, constant_kernel, rational_kernel
from .montecarlo import EnsembleStats, run_ensemble
from .observables import MomentSeries, predict_jumps
from .schedules import (
    ExplicitSchedule,
    GrowthSchedule,
    PowerExponentialSchedule,
    injection_time,
)
from .sources import (
    OpinionSource,
    gaussian_source,
    two_point_source,
    uniform_source,
)

__all__ = ["ConfigError", "ExperimentConfig", "load_config",
           "emit_series_csv", "cmd_dispatch", "main"]

_WORKERS_ENV = "GROWPOP_WORKERS"


class ConfigError(ValueError):
    """A config file failed to parse or validate; message names the field."""


class _UsageError(Exception):
    pass


@dataclass(eq=False)
class ConditionsBlock:
    n_max: int = 100_000
    lambdas: tuple[float, ...] | None = None  # None: use the kernel bounds


@dataclass(eq=False)
class EnvelopeBlock:
    y0: float
    decay_rate: float | None  # None: use the kernel's lower bound
    jump: HarmonicScaled | ExplicitJumps
    n_values: tuple[int, ...] | None = None


@dataclass(eq=False)
class ExperimentConfig:
    sim: SimConfig
    runs: int = 100
    master_seed: int = 0
    output_path: str | None = None
    workers: int | None = None
    conditions: ConditionsBlock | None = None
    envelope: EnvelopeBlock | None = None


# What a field of each kind read by _Fields.get must hold, for error messages.
_EXPECTED = {
    "string": "a string",
    "integer": "an integer",
    "integers": "a nonempty list of integers",
    "number": "a finite number",
    "numbers": "a nonempty list of finite numbers",
    "times": "a list of finite numbers",
    "vector": "a finite number or a nonempty list of finite numbers",
    "opinions": '"at_mean" or a list of opinions, each a number or a list of numbers',
}


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_finite(val) -> bool:
    """A JSON number, not a bool, within the range of finite floats (so not NaN)."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def _finite_list(val, nonempty: bool = True) -> tuple[float, ...] | None:
    if isinstance(val, list) and (val or not nonempty) and all(map(_is_finite, val)):
        return tuple(float(v) for v in val)
    return None


def _opinion_rows(val) -> np.ndarray | None:
    """One row per opinion: a number is an opinion in d = 1, a list one in d >= 1."""
    if not isinstance(val, list):
        return None
    rows = [_finite_list(row if isinstance(row, list) else [row]) for row in val]
    if None in rows or len({len(row) for row in rows}) > 1:
        return None
    return np.array(rows)


class _Fields:
    """One JSON object of a config, read field by field.

    ``get`` type-checks a field and names it by its dotted path on failure;
    ``close`` rejects every key that was never read. Ranges are left to the
    constructors the values go to (see ``_build``).
    """

    def __init__(self, obj, path: str):
        if not isinstance(obj, dict):
            raise ConfigError(f"{path or 'config'}: expected an object, "
                              f"got {type(obj).__name__}")
        self.obj, self.read = obj, set()
        self.prefix = f"{path}." if path else ""

    def get(self, key: str, kind: str, default=...):
        """Field ``key`` as "object" or a kind of _EXPECTED; required without a default."""
        self.read.add(key)
        if key not in self.obj:
            if default is ...:
                raise ConfigError(f"missing required field {self.prefix}{key}")
            return default
        val = self.obj[key]
        if kind == "object":
            return _Fields(val, self.prefix + key)
        if kind == "string":
            out = val if isinstance(val, str) else None
        elif kind == "integer":
            out = val if _is_int(val) else None
        elif kind == "integers":
            ok = isinstance(val, list) and val and all(map(_is_int, val))
            out = tuple(val) if ok else None
        elif kind == "number":
            out = float(val) if _is_finite(val) else None
        elif kind == "vector":
            out = float(val) if _is_finite(val) else _finite_list(val)
        elif kind == "opinions":
            out = val if val == "at_mean" else _opinion_rows(val)
        else:  # "numbers" or "times"
            out = _finite_list(val, nonempty=kind == "numbers")
        if out is None:
            raise ConfigError(f"{self.prefix}{key}: expected {_EXPECTED[kind]}, got {val!r}")
        return out

    def variant(self, *options: str) -> str:
        """The ``type`` field, which names one of the variants ``options``."""
        kind = self.get("type", "string")
        if kind not in options:
            raise ConfigError(f"{self.prefix}type: unknown type {kind!r}, "
                              f"expected one of {', '.join(options)}")
        return kind

    def close(self) -> None:
        unknown = [self.prefix + key for key in self.obj if key not in self.read]
        if unknown:
            raise ConfigError(f"unknown field(s): {', '.join(unknown)}")


def _build(prefix: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a ValueError from it named by its config path.

    Each constructor's message starts with the name of its parameter, so
    ``prefix`` "schedule." turns "alpha must be > 0" into "schedule.alpha
    must be > 0".
    """
    try:
        return make(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{prefix}{err}") from None


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.

    Every field is type-checked here, and every range by the constructor the
    value goes to; either failure names the offending field (e.g.
    schedule.alpha), and so does a key that no field reads. Parse failures
    carry the line and column.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"config parse error at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    top = _Fields(raw, "")

    kernel = _kernel(top.get("kernel", "object"))
    schedule = _schedule(top.get("schedule", "object"))
    source = _source(top.get("source", "object"))
    if source.sigma2 == 0.0:
        warnings.warn("source.sigma2 = 0: incoming opinions are a point mass at the mean",
                      UserWarning, stacklevel=2)
    dim = top.get("dim", "integer", 1)
    x0 = top.get("initial_opinions", "opinions", "at_mean")
    if isinstance(x0, str):
        x0 = np.tile(source.mean_vector, (schedule.n0, 1))
    step_max = top.get("step_max", "number", 1e-2)
    horizon = top.get("horizon", "number", None)
    max_agents = top.get("max_agents", "integer", None)
    t_end = _build("", _end_time, schedule, horizon, max_agents)
    grid_spec = top.get("record_grid", "object", None)
    sim = _build("", SimConfig, dim=dim, kernel=kernel, schedule=schedule, source=source,
                 initial_opinions=x0, step_max=step_max, horizon=horizon,
                 max_agents=max_agents, record_grid=_record_grid(grid_spec, t_end))

    conditions = None
    block = top.get("conditions", "object", None)
    if block is not None:
        conditions = ConditionsBlock(n_max=block.get("n_max", "integer", 100_000),
                                     lambdas=block.get("lambdas", "numbers", None))
        block.close()

    envelope = None
    block = top.get("envelope", "object", None)
    if block is not None:
        envelope = EnvelopeBlock(y0=block.get("y0", "number"),
                                 decay_rate=block.get("lambda", "number", None),
                                 jump=_jump_bound(block.get("jump", "object", None)),
                                 n_values=block.get("n", "integers", None))
        block.close()

    cfg = ExperimentConfig(sim=sim, runs=top.get("runs", "integer", 100),
                           master_seed=top.get("master_seed", "integer", 0),
                           output_path=top.get("output_path", "string", None),
                           workers=top.get("workers", "integer", None),
                           conditions=conditions, envelope=envelope)
    top.close()
    return cfg


def _kernel(spec: _Fields) -> Kernel:
    if spec.variant("constant", "rational") == "constant":
        kernel = _build(spec.prefix, constant_kernel, spec.get("c", "number"))
    else:
        kernel = _build(spec.prefix, rational_kernel, spec.get("a", "number"),
                        spec.get("b", "number"))
    spec.close()
    return kernel


def _schedule(spec: _Fields) -> GrowthSchedule:
    kind = spec.variant("power_exp", "explicit")
    n0 = spec.get("n0", "integer", 1)
    if kind == "power_exp":
        schedule = _build(spec.prefix, PowerExponentialSchedule,
                          alpha=spec.get("alpha", "number"), n0=n0)
    else:
        schedule = _build(spec.prefix, ExplicitSchedule, n0=n0, times=spec.get("times", "times"))
    spec.close()
    return schedule


def _source(spec: _Fields) -> OpinionSource:
    kind = spec.variant("gaussian", "uniform", "two_point")
    if kind == "gaussian":
        make = gaussian_source
    elif kind == "uniform":
        make = uniform_source
    else:
        make = two_point_source
    source = _build(spec.prefix, make, spec.get("mean", "vector"), spec.get("sigma2", "number"))
    spec.close()
    return source


def _record_grid(spec: _Fields | None, t_end: float) -> tuple[float, ...]:
    """The grid ``spec`` asks for; without one, 64 points from t_end / 100 to t_end."""
    t_first = t_end / 100.0
    if spec is None:
        return geometric_record_grid(t_first, t_end, 64) if t_end > 0.0 else ()
    kind = spec.variant("uniform", "geometric", "explicit")
    if kind == "uniform":
        grid = _build(spec.prefix, uniform_record_grid, t_end, spec.get("dt", "number"))
    elif kind == "geometric":
        grid = _build(spec.prefix, geometric_record_grid,
                      spec.get("t_first", "number", t_first), t_end,
                      spec.get("points", "integer", 64))
    else:
        grid = spec.get("times", "times")
    spec.close()
    return grid


def _jump_bound(spec: _Fields | None) -> HarmonicScaled | ExplicitJumps:
    if spec is None:
        return HarmonicScaled(c=1.0)
    if spec.variant("harmonic", "explicit") == "harmonic":
        jump = HarmonicScaled(c=spec.get("c", "number"))
    else:
        jump = ExplicitJumps(values=spec.get("values", "numbers"))
    spec.close()
    return jump


# ---------------------------------------------------------------------------
# CSV output


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_series(series: MomentSeries, fh) -> None:
    d = series.dim
    cols = ["t", "n"] + [f"m1_{i}" for i in range(d)] + ["m2", "v", "w", "dissipation", "event"]
    fh.write(f"# seed={series.seed}\n")
    fh.write(",".join(cols) + "\n")
    # tolist() gives Python ints and floats, whose repr is the CSV format
    values = [series.t, series.n, *series.m1.T, series.m2, series.v, series.w,
              series.dissipation]
    for *vals, event in zip(*(col.tolist() for col in values), series.event):
        fh.write(",".join(map(repr, vals)) + f",{event}\n")


def _write_ensemble(stats: EnsembleStats, fh) -> None:
    fh.write(f"# seed={stats.master_seed}\n")
    fh.write("t,mean_w,stderr_w,mean_v,stderr_v,mean_m1_dev,stderr_m1_dev\n")
    values = [stats.grid, stats.mean_w, stats.stderr_w, stats.mean_v, stats.stderr_v,
              stats.mean_m1_dev, stats.stderr_m1_dev]
    for vals in zip(*(col.tolist() for col in values)):
        fh.write(",".join(map(repr, vals)) + "\n")


def emit_series_csv(obj, path: str) -> None:
    """Write a MomentSeries or EnsembleStats to CSV (see module docstring)."""
    if isinstance(obj, MomentSeries):
        writer = _write_series
    elif isinstance(obj, EnsembleStats):
        writer = _write_ensemble
    else:
        raise ValueError(f"cannot emit {type(obj).__name__} as CSV")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer(obj, fh)


# ---------------------------------------------------------------------------
# Subcommands


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="growpop",
                     description="Growing-population averaging dynamics toolkit")
    sub = parser.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="run one trajectory and write its moment CSV")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", default=None)

    ens = sub.add_parser("ensemble", help="run replicas and write aggregate statistics CSV")
    ens.add_argument("--config", required=True)
    ens.add_argument("--seed", type=int, default=None)
    ens.add_argument("--runs", type=int, default=None)
    ens.add_argument("--workers", type=int, default=None)
    ens.add_argument("--out", default=None)

    cond = sub.add_parser("conditions", help="condition-sum table and classification")
    cond.add_argument("--config", default=None)
    cond.add_argument("--alpha", type=float, default=None)
    cond.add_argument("--lambda", dest="lam", type=float, default=None)
    cond.add_argument("--n-max", dest="n_max", type=int, default=None)
    cond.add_argument("--out", default=None)

    env = sub.add_parser("envelope", help="decayed-recursion bound table")
    env.add_argument("--config", required=True)
    env.add_argument("--out", default=None)

    sub.add_parser("check", help="run the built-in oracle suite")
    return parser


def _resolve_workers(flag: int | None, from_file: int | None) -> int:
    if flag is not None:
        return flag
    if from_file is not None:
        return from_file
    env = os.environ.get(_WORKERS_ENV)
    if env:
        try:
            val = int(env)
        except ValueError:
            raise ConfigError(f"{_WORKERS_ENV}: expected an integer, got {env!r}") from None
        if val < 1:
            raise ConfigError(f"{_WORKERS_ENV}: must be >= 1, got {val}")
        return val
    return 1


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.master_seed
    series = run_simulation(cfg.sim, seed)
    out = args.out or cfg.output_path
    if out is None:
        _write_series(series, sys.stdout)
    else:
        emit_series_csv(series, out)
    return 0


def _cmd_ensemble(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.master_seed
    runs = args.runs if args.runs is not None else cfg.runs
    workers = _resolve_workers(args.workers, cfg.workers)
    stats = run_ensemble(cfg.sim, runs, seed, workers=workers)
    out = args.out or cfg.output_path
    if out is None:
        _write_ensemble(stats, sys.stdout)
    else:
        emit_series_csv(stats, out)
    return 0


def _cmd_conditions(args) -> int:
    alpha = args.alpha
    lambdas = (args.lam,) if args.lam is not None else None
    block = ConditionsBlock()
    if args.config is not None:
        cfg = load_config(args.config)
        if alpha is None:
            sched = cfg.sim.schedule
            if not isinstance(sched, PowerExponentialSchedule):
                raise ConfigError(
                    "schedule.type: conditions needs a power_exp schedule (or pass --alpha)"
                )
            alpha = sched.alpha
        block = cfg.conditions or block
        if lambdas is None:
            lambdas = block.lambdas or (cfg.sim.kernel.psi_star, cfg.sim.kernel.psi_max)
    if alpha is None or lambdas is None:
        raise _UsageError("conditions needs either --config or both --alpha and --lambda")
    n_max = args.n_max if args.n_max is not None else block.n_max
    if n_max < 10:
        raise ConfigError(f"conditions.n_max must be >= 10, got {n_max}")

    lambdas = tuple(dict.fromkeys(lambdas))  # drop duplicates, keep order
    times = asymptotic_injection_times(alpha)
    grid = np.unique(np.geomspace(10, n_max, 12).astype(int))
    rows = [(int(n), [condition_sum(lam, times, int(n)) for lam in lambdas]) for n in grid]
    verdict = classify_schedule(alpha, min(lambdas), max(lambdas),
                                n_max=max(int(n_max), 10_000))

    head = ["n"] + [f"S(lambda={lam:g})" for lam in lambdas]
    widths = [max(len(head[0]), len(str(rows[-1][0])))] + [max(18, len(h)) for h in head[1:]]
    print("  ".join(h.rjust(w) for h, w in zip(head, widths)))
    for n, vals in rows:
        cells = [str(n).rjust(widths[0])]
        cells += [("%.12g" % v).rjust(w) for v, w in zip(vals, widths[1:])]
        print("  ".join(cells))
    print(f"classification: {verdict.value}")

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# classification={verdict.value}\n")
            fh.write(",".join(["n"] + [f"s_lambda_{i}" for i in range(len(lambdas))]) + "\n")
            for n, vals in rows:
                fh.write(",".join([str(n)] + [_fmt(v) for v in vals]) + "\n")
    return 0


def _cmd_envelope(args) -> int:
    cfg = load_config(args.config)
    if cfg.envelope is None:
        raise ConfigError("envelope: config has no envelope block")
    block = cfg.envelope
    lam = block.decay_rate if block.decay_rate is not None else cfg.sim.kernel.psi_star
    spec = EnvelopeSpec(decay_rate=lam, y0=block.y0, jump_bound=block.jump)
    schedule = cfg.sim.schedule
    ns = block.n_values
    if ns is None:
        ns = tuple(int(n) for n in np.unique(np.geomspace(10, 1000, 10).astype(int)))

    rows = [(n, injection_time(schedule, n), envelope_bound(spec, schedule, n)) for n in ns]
    print("%8s  %18s  %18s" % ("n", "t_n", "bound"))
    for n, t_n, b in rows:
        print("%8d  %18.12g  %18.12g" % (n, t_n, b))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("n,t_n,bound\n")
            for n, t_n, b in rows:
                fh.write(f"{n},{_fmt(t_n)},{_fmt(b)}\n")
    return 0


# ---------------------------------------------------------------------------
# Built-in oracle checks


def _check_constant_decay() -> str | None:
    kernel = constant_kernel(1.0)
    config = SimConfig(
        dim=1,
        kernel=kernel,
        schedule=ExplicitSchedule(n0=6, times=(50.0,)),
        source=gaussian_source(0.0, 1.0),
        initial_opinions=np.linspace(-1.0, 2.0, 6)[:, None],
        step_max=1e-3,
        horizon=1.0,
        record_grid=uniform_record_grid(1.0, 0.25),
    )
    series = run_simulation(config, seed=1)
    is_record = np.array(series.event) == "record"
    expected = series.v[0] * np.exp(-2.0 * series.t[is_record])
    worst = float(np.max(np.abs(series.v[is_record] - expected) / expected))
    if not worst <= 1e-12:
        return f"variance decay off by relative {worst:.3e} (tolerance 1e-12)"
    return None


@functools.cache
def _rational_run() -> MomentSeries:
    """The run the jump and energy checks audit: rational kernel, d = 2, 40 arrivals."""
    config = SimConfig(
        dim=2,
        kernel=rational_kernel(0.5, 0.5),
        schedule=PowerExponentialSchedule(alpha=0.5, n0=2),
        source=gaussian_source((0.25, -0.5), 1.0),
        initial_opinions=np.array([[0.5, 0.0], [-0.5, 0.3]]),
        step_max=0.01,  # m2 meets its energy balance to O(h^4): 5.5e-10 (3.5e-7 at 0.05)
        max_agents=42,
    )
    return run_simulation(config, seed=7)


def _check_jump_identities() -> str | None:
    series = _rational_run()
    worst = 0.0
    for pair in series.injection_pairs:
        pred = predict_jumps(pair.pre, pair.x_new, pair.k, series.n0)
        scale = max(1.0, abs(pair.pre.m2), float(pair.x_new @ pair.x_new))
        worst = max(
            worst,
            float(np.max(np.abs((pair.post.m1 - pair.pre.m1) - pred.dm1))) / scale,
            abs((pair.post.m2 - pair.pre.m2) - pred.dm2) / scale,
            abs((pair.post.v - pair.pre.v) - pred.dv) / scale,
        )
    if worst > 1e-12:
        return f"arrival jumps off by {worst:.3e} at scale (tolerance 1e-12)"
    return None


def _check_energy_balance() -> str | None:
    # d(m2)/dt = D between arrivals: m2 at each row is m2(0), plus the integral
    # of D, plus the m2 jumps of the arrivals so far
    series = _rational_run()
    is_post = np.array(series.event) == "post_jump"
    jumps = np.where(is_post, np.diff(series.m2, prepend=series.m2[0]), 0.0)
    expected = series.m2[0] + series.d_integral + np.cumsum(jumps)
    worst = float(np.max(np.abs(series.m2 - expected) / np.abs(expected)))
    if not worst <= 1e-8:
        return f"m2 off its energy balance by relative {worst:.3e} (tolerance 1e-8)"
    return None


def _check_boundary_sum() -> str | None:
    s = condition_sum(1.0, asymptotic_injection_times(1.0), 2000)
    if abs(s - 1.0) > 1e-12:
        return f"boundary condition sum = {s!r}, expected 1.0 within 1e-12"
    return None


def _cmd_check(args) -> int:
    checks = [
        ("constant-kernel variance decay", _check_constant_decay),
        ("arrival jump identities", _check_jump_identities),
        ("energy balance", _check_energy_balance),
        ("boundary condition sum", _check_boundary_sum),
    ]
    failed = False
    for name, fn in checks:
        detail = fn()
        if detail is None:
            print(f"ok: {name}")
        else:
            failed = True
            print(f"FAIL: {name}: {detail}")
    return 2 if failed else 0


def cmd_dispatch(argv: list[str]) -> int:
    """Parse argv (no program name) and run the subcommand; returns exit code."""
    parser = _build_parser()
    handlers = {
        "simulate": _cmd_simulate,
        "ensemble": _cmd_ensemble,
        "conditions": _cmd_conditions,
        "envelope": _cmd_envelope,
        "check": _cmd_check,
    }
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        return handlers[args.command](args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except Exception as err:  # runtime/config errors: contractually exit 2
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cmd_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
