"""Command-line front end and file formats.

Subcommands: simulate (one trajectory to CSV), ensemble (aggregate statistics
to CSV), conditions (condition-sum table plus classification), envelope
(decayed-recursion bound table), check (built-in oracle suite). Configs are
JSON, and this module alone reads that format: ``load_config`` checks each
field's type, the constructor a value goes to checks its range, and a field
left out takes that constructor's default. Flags override file fields, and a
bad flag value is named by its flag. Exit codes: 0 success, 1 usage error, 2
runtime error.

Every CSV goes through one writer, ``_write_csv``, to --out (simulate and
ensemble: else output_path, else stdout), checked before any work: UTF-8, LF
newlines, a leading "# seed=" (simulate, ensemble) or "# classification="
(conditions) line, none for envelope, the header, then floats in shortest
round-trip form (repr), so identical (config, seed) pairs give byte-identical
files. Each column is formatted once per run of equal values: a value
bit-equal to the one above it reuses that row's text, so the bytes are those
of per-value repr.
"""

from __future__ import annotations

import argparse
import contextlib
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
    condition_sum,
    _condition_sums,
    _conditions_table,
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
    asymptotic_injection_times,
    injection_time,
    _integer,
    _number,
)
from .sources import OpinionSource, gaussian_source, _FAMILIES

__all__ = ["ConfigError", "ExperimentConfig", "load_config",
           "emit_series_csv", "cmd_dispatch", "main"]


class ConfigError(ValueError):
    """A config file failed to parse or validate; message names the field."""


class _UsageError(Exception):
    pass


@dataclass(eq=False)
class ConditionsBlock:
    n_max: int = 100_000
    lambdas: tuple[float, ...] | None = None  # None: use the kernel bounds

    def __post_init__(self):
        self.n_max = _integer(self.n_max, "n_max", 10)
        if self.lambdas is not None:
            self.lambdas = tuple(_number(lam, "lambdas", "> 0") for lam in self.lambdas)


@dataclass(eq=False)
class EnvelopeBlock:
    spec: EnvelopeSpec
    n_values: tuple[int, ...] = (10, 16, 27, 46, 77, 129, 215, 359, 599, 1000)

    def __post_init__(self):
        self.n_values = tuple(_integer(n, "n", 1) for n in self.n_values)


@dataclass(eq=False)
class ExperimentConfig:
    sim: SimConfig
    runs: int = 100
    master_seed: int = 0
    output_path: str | None = None
    workers: int = 1
    conditions: ConditionsBlock | None = None
    envelope: EnvelopeBlock | None = None

    def __post_init__(self):
        self.master_seed = _integer(self.master_seed, "master_seed", 0)
        if self.output_path == "":  # no file has this name; stdout is None
            raise ValueError("output_path must name a file, got ''")


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


# Each kind of field _Fields.get reads: what it must hold, and its reader (None: it does not).
_KINDS = {
    "string": ("a string", lambda val: val if isinstance(val, str) else None),
    "integer": ("an integer", lambda val: val if _is_int(val) else None),
    "integers": ("a nonempty list of integers", lambda val: tuple(val) if (
        isinstance(val, list) and val and all(map(_is_int, val))) else None),
    "number": ("a finite number", lambda val: float(val) if _is_finite(val) else None),
    "numbers": ("a nonempty list of finite numbers", _finite_list),
    "times": ("a list of finite numbers", lambda val: _finite_list(val, nonempty=False)),
    "vector": ("a finite number or a nonempty list of finite numbers",
               lambda val: float(val) if _is_finite(val) else _finite_list(val)),
    "opinions": ('"at_mean" or a list of opinions, each a number or a list of numbers',
                 lambda val: val if val == "at_mean" else _opinion_rows(val)),
}


class _Fields:
    """One JSON object of a config, read field by field.

    ``get`` type-checks a field and names it by its dotted path on failure;
    ``given`` reads the optional fields whose defaults are the constructor's;
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
        """Field ``key`` as "object" or a kind of _KINDS; required without a default."""
        self.read.add(key)
        if key not in self.obj:
            if default is ...:
                raise ConfigError(f"missing required field {self.prefix}{key}")
            return default
        val = self.obj[key]
        if kind == "object":
            return _Fields(val, self.prefix + key)
        expected, read = _KINDS[kind]
        out = read(val)
        if out is None:
            raise ConfigError(f"{self.prefix}{key}: expected {expected}, got {val!r}")
        return out

    def given(self, **kinds: str) -> dict:
        """The fields of ``kinds`` that the object holds, read as their kinds: one
        left out is absent here, so it takes the default of the constructor."""
        return {key: self.get(key, kind) for key, kind in kinds.items() if key in self.obj}

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
    carry the line and column. An optional field left out takes the default
    of the constructor it goes to; only the defaults none declares are here.
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
    limits = top.given(step_max="number", horizon="number", max_agents="integer")
    t_end = _build("", _end_time, schedule, limits.get("horizon"), limits.get("max_agents"))
    grid = _record_grid(top.get("record_grid", "object", None), t_end)
    sim = _build("", SimConfig, dim=dim, kernel=kernel, schedule=schedule, source=source,
                 initial_opinions=x0, record_grid=grid, **limits)

    conditions = None
    block = top.get("conditions", "object", None)
    if block is not None:
        conditions = _build(block.prefix, ConditionsBlock,
                            **block.given(n_max="integer", lambdas="numbers"))
        block.close()

    envelope = None
    block = top.get("envelope", "object", None)
    if block is not None:
        spec = _build(f"{block.prefix}lambda: ", EnvelopeSpec, y0=block.get("y0", "number"),
                      decay_rate=block.get("lambda", "number", kernel.psi_star),
                      jump_bound=_jump_bound(block.get("jump", "object", None)))
        # the field "n" fills EnvelopeBlock.n_values, its second parameter
        envelope = _build(block.prefix, EnvelopeBlock, spec, *block.given(n="integers").values())
        block.close()

    cfg = _build("", ExperimentConfig, sim=sim, conditions=conditions, envelope=envelope,
                 **top.given(runs="integer", master_seed="integer", output_path="string",
                             workers="integer"))
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
    source = _build(spec.prefix, OpinionSource, spec.variant(*_FAMILIES),
                    spec.get("mean", "vector"), spec.get("sigma2", "number"))
    spec.close()
    return source


def _record_grid(spec: _Fields | None, t_end: float) -> tuple[float, ...]:
    """The grid ``spec`` asks for; a geometric one's t_first and points
    default to t_end / 100 and 64."""
    if spec is None:  # a geometric spec with neither, or no grid if the run ends at t = 0
        return _record_grid(_Fields({"type": "geometric"}, ""), t_end) if t_end > 0.0 else ()
    kind = spec.variant("uniform", "geometric", "explicit")
    if kind == "uniform":
        grid = _build(spec.prefix, uniform_record_grid, t_end, spec.get("dt", "number"))
    elif kind == "geometric":
        grid = _build(spec.prefix, geometric_record_grid,
                      spec.get("t_first", "number", t_end / 100.0), t_end,
                      spec.get("points", "integer", 64))
    else:
        grid = spec.get("times", "times")
    spec.close()
    return grid


def _jump_bound(spec: _Fields | None) -> HarmonicScaled | ExplicitJumps:
    if spec is None:
        return HarmonicScaled(c=1.0)
    if spec.variant("harmonic", "explicit") == "harmonic":
        jump = _build(spec.prefix, HarmonicScaled, c=spec.get("c", "number"))
    else:
        jump = _build(spec.prefix, ExplicitJumps, values=spec.get("values", "numbers"))
    spec.close()
    return jump


# ---------------------------------------------------------------------------
# CSV output


_BLOCK_ROWS = 512  # rows formatted per write, so the text in memory is bounded


def _column_text(col: np.ndarray) -> list[str]:
    """``[repr(v) for v in col.tolist()]``, with repr called once per run of equal values.

    float64 values are compared by their bits, so -0.0 below 0.0 gets its own
    text; any other column (integers) by value.
    """
    if len(col) == 0:
        return []
    bits = col.view(np.int64) if col.dtype == np.float64 else col
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    heads = np.array(list(map(repr, col[starts].tolist())), dtype=object)
    return np.repeat(heads, np.diff(starts, append=len(col))).tolist()


def _write_rows(fh, columns: list[np.ndarray], last=None) -> None:
    """Write ``columns`` (1-D, of one length) as CSV rows; ``last``, a sequence
    of strings, if given, is each row's last cell."""
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [_column_text(col[lo:lo + _BLOCK_ROWS]) for col in columns]
        if last is not None:
            block.append(last[lo:lo + _BLOCK_ROWS])
        fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def _write_csv(path: str | None, head: list[str], columns: list[np.ndarray], last=None,
               comment: str | None = None) -> None:
    """Write one table to ``path``, or to stdout when it is None: the line
    "# ``comment``" if given, the header ``head``, then the rows of ``columns``
    and ``last`` (see ``_write_rows``)."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="")) as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(head) + "\n")
        _write_rows(fh, columns, last)


def emit_series_csv(obj, path: str | None) -> None:
    """Write a MomentSeries or EnsembleStats as CSV to ``path``, or to stdout
    when it is None (see module docstring)."""
    if isinstance(obj, MomentSeries):
        head = ["t", "n", *(f"m1_{i}" for i in range(obj.m1.shape[1])),
                "m2", "v", "w", "dissipation", "event"]
        _write_csv(path, head, [obj.t, obj.n, *obj.m1.T, obj.m2, obj.v, obj.w, obj.dissipation],
                   obj.event, comment=f"seed={obj.seed}")
    elif isinstance(obj, EnsembleStats):
        head = ["t", "mean_w", "stderr_w", "mean_v", "stderr_v", "mean_m1_dev", "stderr_m1_dev"]
        _write_csv(path, head, [obj.grid, obj.mean_w, obj.stderr_w, obj.mean_v, obj.stderr_v,
                                obj.mean_m1_dev, obj.stderr_m1_dev],
                   comment=f"seed={obj.master_seed}")
    else:
        raise ValueError(f"cannot emit {type(obj).__name__} as CSV")


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
    sim.set_defaults(run=_cmd_simulate)
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", default=None)

    ens = sub.add_parser("ensemble", help="run replicas and write aggregate statistics CSV")
    ens.set_defaults(run=_cmd_ensemble)
    ens.add_argument("--config", required=True)
    ens.add_argument("--seed", type=int, default=None)
    ens.add_argument("--runs", type=int, default=None)
    ens.add_argument("--workers", type=int, default=None)
    ens.add_argument("--out", default=None)

    cond = sub.add_parser("conditions", help="condition-sum table and classification")
    cond.set_defaults(run=_cmd_conditions)
    cond.add_argument("--config", default=None)
    cond.add_argument("--alpha", type=float, default=None)
    cond.add_argument("--lambda", dest="lam", type=float, action="append", default=None)
    cond.add_argument("--n-max", dest="n_max", type=int, default=None)
    cond.add_argument("--out", default=None)

    env = sub.add_parser("envelope", help="decayed-recursion bound table")
    env.set_defaults(run=_cmd_envelope)
    env.add_argument("--config", required=True)
    env.add_argument("--out", default=None)

    sub.add_parser("check", help="run the built-in oracle suite").set_defaults(run=_cmd_check)
    return parser


def _writable(path: str | None) -> str | None:
    """``path``, checked before any run or table work: its directory must exist,
    and it must not be one itself. None (stdout) passes; nothing is created."""
    if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
        raise OSError(f"cannot write {path}: no directory {os.path.dirname(path)}")
    if path is not None and os.path.isdir(path):
        raise OSError(f"cannot write {path}: it is a directory")
    return path


def _run_setup(args) -> tuple[ExperimentConfig, int, str | None]:
    """The config, seed and checked output path of a simulate or ensemble run."""
    cfg = load_config(args.config)
    seed = cfg.master_seed if args.seed is None else _integer(args.seed, "--seed", 0)
    return cfg, seed, _writable(args.out or cfg.output_path)


def _cmd_simulate(args) -> int:
    cfg, seed, out = _run_setup(args)
    emit_series_csv(run_simulation(cfg.sim, seed), out)
    return 0


def _cmd_ensemble(args) -> int:
    cfg, seed, out = _run_setup(args)
    runs = cfg.runs if args.runs is None else _integer(args.runs, "--runs", 2)
    workers = cfg.workers if args.workers is None else _integer(args.workers, "--workers", 1)
    emit_series_csv(run_ensemble(cfg.sim, runs, seed, workers=workers), out)
    return 0


def _cmd_conditions(args) -> int:
    alpha, lambdas, block = args.alpha, args.lam, ConditionsBlock()
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
    # a flag's value is named by its flag; a config's was checked at load
    if args.alpha is not None:
        alpha = _number(alpha, "--alpha", "> 0")
    if args.lam is not None:
        lambdas = [_number(lam, "--lambda", "> 0") for lam in lambdas]
    n_max = args.n_max if args.n_max is not None else block.n_max
    if n_max < 10:
        raise ConfigError(f"--n-max must be >= 10, got {n_max}")
    _writable(args.out)

    lambdas = tuple(dict.fromkeys(lambdas))  # drop duplicates, keep order
    grid, columns, verdict = _conditions_table(alpha, lambdas, n_max)
    table = [grid, *(columns[lam] for lam in lambdas)]

    head = ["n"] + [f"S(lambda={lam:g})" for lam in lambdas]
    widths = [max(len(head[0]), len(str(grid[-1])))] + [max(18, len(h)) for h in head[1:]]
    print("  ".join(h.rjust(w) for h, w in zip(head, widths)))
    for n, *vals in zip(*(col.tolist() for col in table)):
        cells = [str(n).rjust(widths[0])]
        cells += [("%.12g" % v).rjust(w) for v, w in zip(vals, widths[1:])]
        print("  ".join(cells))
    print(f"classification: {verdict.value}")

    if args.out:
        _write_csv(args.out, ["n"] + [f"s_lambda_{i}" for i in range(len(lambdas))], table,
                   comment=f"classification={verdict.value}")
    return 0


def _cmd_envelope(args) -> int:
    cfg = load_config(args.config)
    if cfg.envelope is None:
        raise ConfigError("envelope: config has no envelope block")
    _writable(args.out)
    spec, ns = cfg.envelope.spec, cfg.envelope.n_values
    schedule = cfg.sim.schedule

    # one table over the distinct n in increasing order, read back per request
    grid, at = np.unique(np.array(ns), return_inverse=True)
    bounds = _condition_sums((spec.decay_rate,), schedule, grid, spec.jump_bound, spec.y0)[0, at]
    t_n = np.array([injection_time(schedule, n) for n in ns], dtype=float)
    print("%8s  %18s  %18s" % ("n", "t_n", "bound"))
    for row in zip(ns, t_n.tolist(), bounds.tolist()):
        print("%8d  %18.12g  %18.12g" % row)
    if args.out:
        _write_csv(args.out, ["n", "t_n", "bound"], [np.array(ns), t_n, bounds])
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
        pred = predict_jumps(pair.pre, pair.x_new, pair.k, int(series.n[0]))
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
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        return args.run(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except Exception as err:  # runtime/config errors: contractually exit 2
        # an error with no message (a bare MemoryError) is named by its type
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cmd_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
