"""Config loading, CSV emission, and the command-line contract.

Exit codes are part of the interface: 0 success, 1 usage error, 2 runtime
error. CSV files must round-trip bit for bit (repr floats, LF newlines) and
start with the seed comment.
"""

import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import growpop
from growpop import (
    ExplicitSchedule,
    PowerExponentialSchedule,
    constant_kernel,
    rational_kernel,
    run_simulation,
)
from growpop import analysis, cli, schedules
from growpop.cli import ConfigError, cmd_dispatch, emit_series_csv, load_config
from growpop.dynamics import _end_time

BASE_CONFIG = {
    "dim": 1,
    "kernel": {"type": "constant", "c": 1.0},
    "schedule": {"type": "power_exp", "alpha": 0.5, "n0": 3},
    "source": {"type": "gaussian", "mean": 0.0, "sigma2": 1.0},
    "initial_opinions": [0.5, -0.5, 1.0],
    "step_max": 0.05,
    "max_agents": 8,
    "record_grid": {"type": "uniform", "dt": 0.25},
    "runs": 4,
    "master_seed": 17,
}


def write_config(tmp_path, name="config.json", **overrides):
    spec = json.loads(json.dumps(BASE_CONFIG))
    for key, val in overrides.items():
        if val is None:
            spec.pop(key, None)
        else:
            spec[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


class TestLoadConfig:
    def test_full_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.sim.dim == 1
        assert cfg.sim.kernel == constant_kernel(1.0)
        assert cfg.sim.schedule.alpha == 0.5
        assert cfg.runs == 4 and cfg.master_seed == 17
        np.testing.assert_array_equal(cfg.sim.initial_opinions,
                                      [[0.5], [-0.5], [1.0]])

    def test_minimal_defaults(self, tmp_path):
        path = write_config(tmp_path, initial_opinions=None, step_max=None,
                            record_grid=None, runs=None, master_seed=None)
        cfg = load_config(path)
        assert cfg.runs == 100
        assert cfg.master_seed == 0
        # at_mean default: n0 copies of the source mean
        np.testing.assert_array_equal(cfg.sim.initial_opinions, np.zeros((3, 1)))
        assert cfg.sim.step_max == 1e-2
        assert len(cfg.sim.record_grid) == 64  # default geometric grid

    def test_left_out_fields_take_the_constructors_defaults(self, tmp_path):
        # the required fields alone, plus two blocks with only their required
        # fields: every other field holds the default its dataclass declares,
        # but dim and the founders, which SimConfig works out from the source
        spec = {"kernel": BASE_CONFIG["kernel"], "schedule": {"type": "power_exp", "alpha": 0.5},
                "source": {"type": "gaussian", "mean": [0.25, -0.5], "sigma2": 1.0}}
        cfg = load_spec(tmp_path, {**spec, "horizon": 2.0, "conditions": {},
                                   "envelope": {"y0": 1.0}})
        set_here = {"horizon", "record_grid", "conditions", "envelope"}
        from_source = {"dim", "initial_opinions"}
        checked = []
        for obj in (cfg, cfg.sim, cfg.sim.schedule, cfg.conditions, cfg.envelope):
            for field in dataclasses.fields(obj):
                if field.default is not dataclasses.MISSING and field.name not in set_here:
                    if field.name not in from_source:
                        assert getattr(obj, field.name) == field.default, field.name
                    checked.append(field.name)
        assert sorted(checked) == ["dim", "initial_opinions", "lambdas", "master_seed",
                                   "max_agents", "n0", "n_max", "n_values", "output_path",
                                   "runs", "step_max", "workers"]
        assert cfg.sim.schedule.n0 == 1
        assert cfg.sim.dim == cfg.sim.source.dim == 2
        assert cfg.sim.initial_opinions.tolist() == [[0.25, -0.5]]

    def test_at_mean_spelling_is_refused(self, tmp_path, capsys):
        # founders left out sit at the source mean; no string asks for that
        path = write_config(tmp_path, initial_opinions="at_mean")
        assert cmd_dispatch(["simulate", "--config", path]) == 2
        assert capsys.readouterr() == ("", "error: initial_opinions: expected a list of "
                                           "opinions, each a number or a list of numbers, "
                                           "got 'at_mean'\n")

    @pytest.mark.parametrize("grid", [None, {"type": "geometric", "points": 16}])
    def test_default_grid_does_not_depend_on_step_max(self, tmp_path, grid):
        # the constant kernel's exact flow ignores step_max, so must its rows
        spec = dict(schedule={"type": "power_exp", "alpha": 0.5, "n0": 10},
                    initial_opinions=None, max_agents=200, record_grid=grid)
        fine = load_config(write_config(tmp_path, "fine.json", step_max=0.01, **spec))
        coarse = load_config(write_config(tmp_path, "coarse.json", step_max=3.0, **spec))
        assert fine.sim.record_grid == coarse.sim.record_grid
        assert fine.sim.record_grid[0] == _end_time(fine.sim.schedule, None, 200) / 100

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 1,\n  "kernel": }')
        with pytest.raises(ConfigError, match=r"line 2"):
            load_config(str(path))

    def test_zero_sigma2_accepted_with_warning(self, tmp_path):
        path = write_config(tmp_path, source={"type": "gaussian", "mean": 0.0,
                                              "sigma2": 0.0})
        with pytest.warns(UserWarning, match="sigma2"):
            cfg = load_config(path)
        assert cfg.sim.source.sigma2 == 0.0

    def test_negative_master_seed_is_named(self, tmp_path):
        with pytest.raises(ConfigError, match="^master_seed must be an integer >= 0, got -1$"):
            load_config(write_config(tmp_path, master_seed=-1))

    def test_missing_kernel(self, tmp_path):
        path = write_config(tmp_path, kernel=None)
        with pytest.raises(ConfigError, match="kernel"):
            load_config(path)

    def test_initial_opinions_shape_mismatch(self, tmp_path):
        path = write_config(tmp_path, initial_opinions=[0.0, 1.0])
        with pytest.raises(ConfigError, match="initial_opinions"):
            load_config(path)

    def test_dimension_mismatch_between_source_and_dim(self, tmp_path):
        path = write_config(tmp_path, source={"type": "gaussian",
                                              "mean": [0.0, 0.0], "sigma2": 1.0})
        with pytest.raises(ConfigError, match=r"source\.mean"):
            load_config(path)

    def test_no_stop_condition(self, tmp_path):
        path = write_config(tmp_path, max_agents=None)
        with pytest.raises(ConfigError, match="horizon"):
            load_config(path)

    def test_geometric_grid_block(self, tmp_path):
        path = write_config(tmp_path, record_grid={"type": "geometric",
                                                   "t_first": 0.1, "points": 16})
        cfg = load_config(path)
        assert len(cfg.sim.record_grid) == 16
        assert cfg.sim.record_grid[0] == pytest.approx(0.1)

    def test_explicit_grid_block(self, tmp_path):
        path = write_config(tmp_path, record_grid={"type": "explicit",
                                                   "times": [0.1, 0.9]})
        cfg = load_config(path)
        assert cfg.sim.record_grid == (0.1, 0.9)

    def test_unknown_grid_type(self, tmp_path):
        path = write_config(tmp_path, record_grid={"type": "log"})
        with pytest.raises(ConfigError, match=r"record_grid\.type"):
            load_config(path)


def with_field(spec, path, value):
    """A copy of ``spec`` with the field at dotted ``path`` set to ``value``.

    A numeric path component indexes a list: "envelope.n.0".
    """
    spec = json.loads(json.dumps(spec))
    *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
    node = spec
    for key in parents:
        node = node[key]
    node[last] = value
    return spec


def load_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))  # writes NaN and Infinity as json.load reads them
    return load_config(str(path))


# A config with every optional block, so each of their fields can be probed.
FULL_CONFIG = {
    **BASE_CONFIG,
    "kernel": {"type": "rational", "a": 0.4, "b": 1.2},
    "record_grid": {"type": "geometric", "t_first": 0.1, "points": 8},
    "horizon": 5.0,
    "workers": 2,
    "conditions": {"n_max": 1000, "lambdas": [0.5, 1.0]},
    "envelope": {"y0": 1.0, "lambda": 0.5, "jump": {"type": "harmonic", "c": 1.0},
                 "n": [5, 10]},
}
# Configs that load and hold the fields the probes below replace.
AT_HORIZON = {**{k: v for k, v in BASE_CONFIG.items() if k != "max_agents"}, "horizon": 2.0}
EXPLICIT_TIMES = with_field(AT_HORIZON, "schedule",
                            {"type": "explicit", "times": [1.0], "n0": 3})
AT_MEAN = {k: v for k, v in BASE_CONFIG.items() if k != "initial_opinions"}
EXPLICIT_JUMPS = with_field(FULL_CONFIG, "envelope.jump",
                            {"type": "explicit", "values": [1.0]})
EXPLICIT_GRID = with_field(BASE_CONFIG, "record_grid", {"type": "explicit", "times": [0.5]})
# Every numeric field of the format, with a config that holds it.
NUMERIC_FIELDS = [(FULL_CONFIG, path) for path in (
    "dim", "kernel.a", "kernel.b", "schedule.alpha", "schedule.n0", "source.mean",
    "source.sigma2", "initial_opinions.1", "step_max", "horizon", "max_agents",
    "record_grid.t_first", "record_grid.points", "runs", "master_seed", "workers",
    "conditions.n_max", "conditions.lambdas.0", "envelope.y0", "envelope.lambda",
    "envelope.jump.c", "envelope.n.1",
)] + [(BASE_CONFIG, "kernel.c"), (BASE_CONFIG, "record_grid.dt"),
      (EXPLICIT_TIMES, "schedule.times.0"), (EXPLICIT_JUMPS, "envelope.jump.values.0"),
      (EXPLICIT_GRID, "record_grid.times.0")]
PROBE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])


def field_name(path):
    """The name an error gives a field: list indices dropped."""
    return ".".join(k for k in path.split(".") if not k.isdigit())


class TestFieldTypes:
    """Each field is type-checked once, at load, and named when it fails."""

    @pytest.mark.parametrize("base, path, value", [
        (BASE_CONFIG, "output_path", 1),
        (EXPLICIT_TIMES, "schedule.times", ["1"]),
        (EXPLICIT_TIMES, "schedule.times", [True]),
        (AT_MEAN, "source.mean", math.nan),
        (BASE_CONFIG, "source.mean", [math.inf]),
        (BASE_CONFIG, "initial_opinions", [True, False, True]),
        (EXPLICIT_JUMPS, "envelope.jump.values", ["a"]),
        (EXPLICIT_JUMPS, "envelope.jump.values", [[1.0]]),
        (EXPLICIT_JUMPS, "envelope.jump.values", [True]),
        (FULL_CONFIG, "envelope.y0", math.nan),
        (FULL_CONFIG, "envelope.lambda", math.nan),
        (EXPLICIT_GRID, "record_grid.times", [math.inf]),
        (BASE_CONFIG, "record_grid.dt", math.inf),
        (FULL_CONFIG, "conditions.lambdas", [math.inf]),
    ])
    def test_ill_typed_field_is_named(self, tmp_path, base, path, value):
        assert load_spec(tmp_path, base)
        with pytest.raises(ConfigError, match=re.escape(path)):
            load_spec(tmp_path, with_field(base, path, value))

    @pytest.mark.parametrize("base, path, value", [pytest.param(*case, id=case[1]) for case in [
        (BASE_CONFIG, "schedule.alpha", 0.0),
        (BASE_CONFIG, "source.sigma2", -1.0),
        (FULL_CONFIG, "envelope.lambda", -1.0),
        (FULL_CONFIG, "envelope.jump.c", -2.0),
        (EXPLICIT_JUMPS, "envelope.jump.values", [0.5, -0.1]),
        (FULL_CONFIG, "conditions.lambdas", [0.5, -1.0]),
        (FULL_CONFIG, "conditions.n_max", 9),
        (FULL_CONFIG, "envelope.n", [0, 5]),
    ]])
    def test_out_of_range_field_is_named(self, tmp_path, base, path, value):
        assert load_spec(tmp_path, base)
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}\b"):
            load_spec(tmp_path, with_field(base, path, value))

    def test_full_config_loads(self, tmp_path):
        cfg = load_spec(tmp_path, FULL_CONFIG)
        assert cfg.workers == 2 and cfg.conditions.lambdas == (0.5, 1.0)
        assert cfg.envelope.spec == growpop.EnvelopeSpec(
            decay_rate=0.5, y0=1.0, jump_bound=growpop.HarmonicScaled(c=1.0))
        assert cfg.envelope.n_values == (5, 10)

    @PROBE_SETTINGS
    @given(field=st.sampled_from(NUMERIC_FIELDS),
           value=st.sampled_from([True, False, "1", math.nan, math.inf, -math.inf]))
    def test_any_numeric_field_rejects_non_numbers(self, tmp_path, field, value):
        base, path = field
        with pytest.raises(ConfigError, match=re.escape(field_name(path))):
            load_spec(tmp_path, with_field(base, path, value))

    @pytest.mark.parametrize("path", ["step", "kernel.c", "record_grid.dt",
                                      "envelope.decay_rate", "envelope.n_values",
                                      "track_dissipation_integral"])
    def test_unknown_key_is_named(self, tmp_path, path):
        with pytest.raises(ConfigError, match=rf"unknown field\(s\): {re.escape(path)}"):
            load_spec(tmp_path, with_field(FULL_CONFIG, path, 1.0))


positive = st.floats(min_value=1e-6, max_value=1e6)
finite = st.floats(min_value=-1e6, max_value=1e6)
KERNELS = st.one_of(
    st.builds(lambda c: ({"type": "constant", "c": c}, constant_kernel(c)), positive),
    st.builds(lambda a, b: ({"type": "rational", "a": a, "b": b}, rational_kernel(a, b)),
              positive, st.floats(min_value=0.0, max_value=1e6)),
)
SCHEDULES = st.one_of(
    st.builds(lambda alpha, n0: ({"type": "power_exp", "alpha": alpha, "n0": n0},
                                 PowerExponentialSchedule(alpha=alpha, n0=n0)),
              st.floats(min_value=1e-3, max_value=1e3), st.integers(1, 20)),
    st.builds(lambda times, n0: ({"type": "explicit", "times": times, "n0": n0},
                                 ExplicitSchedule(n0=n0, times=tuple(times))),
              st.lists(positive, max_size=5, unique=True).map(sorted), st.integers(1, 20)),
)
SOURCES = st.tuples(
    st.sampled_from(["gaussian", "uniform", "two_point"]),
    st.one_of(finite, st.lists(finite, min_size=1, max_size=3)),
    st.floats(min_value=0.0, max_value=1e6),
)


class TestRoundTrip:
    @pytest.mark.filterwarnings("ignore:source.sigma2 = 0")
    @PROBE_SETTINGS
    @given(kernel=KERNELS, schedule=SCHEDULES, source=SOURCES, step_max=positive)
    def test_load_builds_what_the_constructors_build(self, tmp_path, kernel, schedule,
                                                     source, step_max):
        kind, mean, sigma2 = source
        built = growpop.OpinionSource(kind, mean, sigma2)
        cfg = load_spec(tmp_path, {
            "dim": built.dim,
            "kernel": kernel[0],
            "schedule": schedule[0],
            "source": {"type": kind, "mean": mean, "sigma2": sigma2},
            "step_max": step_max,
            "horizon": 1.0,
        })
        assert cfg.sim.kernel == kernel[1]
        assert cfg.sim.schedule == schedule[1]
        assert cfg.sim.source == built
        assert cfg.sim.step_max == step_max


# Every public name of the package, grouped by the module that defines it.
PUBLIC_NAMES = {
    "Kernel", "constant_kernel", "rational_kernel",
    "PowerExponentialSchedule", "ExplicitSchedule", "GrowthSchedule",
    "asymptotic_injection_times",
    "injection_time", "population_at",
    "OpinionSource", "gaussian_source", "uniform_source",
    "MomentRecord", "MomentSeries", "SeriesRow", "InjectionJump",
    "JumpPrediction", "compute_moments", "dissipation_of", "predict_jumps",
    "expected_m1_deviation",
    "SimConfig", "SimState", "rhs",
    "integrate_interval", "run_simulation",
    "uniform_record_grid", "geometric_record_grid",
    "condition_sum", "dawson_f", "ScheduleClass", "ClassificationError", "classify_schedule",
    "HarmonicScaled", "ExplicitJumps", "EnvelopeSpec", "envelope_bound",
    "EnsembleStats", "derive_run_seed", "run_ensemble", "ensemble_statistic",
    "expected_moments",
}


class TestPackageSurface:
    @pytest.mark.parametrize("module", ["growpop"] + [
        f"growpop.{name}" for name in ("kernels", "schedules", "sources", "observables",
                                       "dynamics", "montecarlo", "analysis", "cli")])
    def test_every_public_name_resolves(self, module):
        mod = importlib.import_module(module)
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == []

    def test_package_publishes_the_same_names(self):
        assert len(growpop.__all__) == len(PUBLIC_NAMES)
        assert set(growpop.__all__) == PUBLIC_NAMES

    def test_cli_runs_as_module_without_warnings(self):
        src = os.path.dirname(os.path.dirname(growpop.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "growpop.cli", "check"], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0
        assert done.stderr == ""


def regime_fields(alpha):
    """Config fields of a regime ensemble: constant kernel, N from 10 to 2000."""
    return {"schedule": {"type": "power_exp", "alpha": alpha, "n0": 10},
            "initial_opinions": None, "step_max": 0.01, "max_agents": 2000,
            "record_grid": {"type": "geometric", "points": 64, "t_first": 0.5}}


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


# float64 bit patterns: any float, the edge values, NaNs with other signs and
# payloads (a signalling one too), and raw 64-bit words, which are mostly
# normal floats but reach every subnormal and NaN pattern
FLOAT_BITS = st.one_of(
    st.floats(width=64).map(_bits),
    st.sampled_from([_bits(x) for x in (0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                                        2.225073858507201e-308, 2.2250738585072014e-308,
                                        1.0, 0.1)]
                    + [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                       0x7FF0000000000001]),
    st.integers(0, 2**64 - 1),
)


class TestCsvEmission:
    def run_series(self, tmp_path, seed=5):
        cfg = load_config(write_config(tmp_path))
        return run_simulation(cfg.sim, seed)

    def test_header_and_seed_comment(self, tmp_path):
        series = self.run_series(tmp_path)
        out = tmp_path / "run.csv"
        emit_series_csv(series, str(out))
        lines = out.read_bytes().decode("utf-8").split("\n")
        assert lines[0] == "# seed=5"
        assert lines[1] == "t,n,m1_0,m2,v,w,dissipation,event"
        assert b"\r" not in out.read_bytes()

    @pytest.mark.parametrize("kernel", [{"type": "constant", "c": 1.0},
                                        {"type": "rational", "a": 0.5, "b": 0.5}],
                             ids=["constant", "rational"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_floats_round_trip_exactly(self, tmp_path, dim, kernel):
        x0 = [[0.5, -0.25, 0.125], [-0.5, 0.75, 0.0], [1.0, 0.0, -1.0]]
        cfg = load_config(write_config(
            tmp_path, dim=dim, kernel=kernel, initial_opinions=[x[:dim] for x in x0],
            source={"type": "gaussian", "mean": [0.0] * dim, "sigma2": 1.0}))
        series = run_simulation(cfg.sim, 5)
        out = tmp_path / "run.csv"
        emit_series_csv(series, str(out))
        lines = out.read_text().strip().split("\n")[2:]
        assert len(lines) == len(series.t)
        floats = [series.t, *series.m1.T, series.m2, series.v, series.w, series.dissipation]
        for i, line in enumerate(lines):
            t, n, *cells, event = line.split(",")
            assert n == str(int(series.n[i]))
            assert [t, *cells] == [repr(float(col[i])) for col in floats]
            assert event == series.event[i]

    def test_identical_runs_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_series_csv(self.run_series(tmp_path), str(a))
        emit_series_csv(self.run_series(tmp_path), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unsupported_object_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_series_csv({"not": "a series"}, str(tmp_path / "x.csv"))

    @pytest.mark.parametrize("values", [[], [1.5], [0.0, -0.0], [-0.0, 0.0], [0.0, 0.0, -0.0],
                                        [math.nan, math.nan], [math.inf, math.inf, -math.inf]],
                             ids=["empty", "one", "zero-negzero", "negzero-zero", "zero-run",
                                  "nan-run", "inf-run"])
    def test_column_text_small_columns(self, values):
        col = np.array(values, dtype=float)
        assert cli._column_text(col) == [repr(v) for v in values]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(bits=st.lists(st.tuples(FLOAT_BITS, st.integers(1, 4)), max_size=12))
    def test_float_column_text_is_per_value_repr(self, bits):
        col = np.array([b for b, run in bits for _ in range(run)], dtype=np.uint64).view(float)
        want = [repr(v) for v in col.tolist()]
        assert cli._column_text(col) == want
        # a strided view, as a column of m1 is
        assert cli._column_text(np.stack([col, col], axis=1)[:, 1]) == want

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(values=st.lists(st.tuples(st.integers(-2**63, 2**63 - 1), st.integers(1, 4)),
                           max_size=12))
    def test_int_column_text_is_per_value_repr(self, values):
        col = np.array([v for v, run in values for _ in range(run)], dtype=np.int64)
        assert cli._column_text(col) == [repr(v) for v in col.tolist()]

    @pytest.mark.parametrize("block_rows", [cli._BLOCK_ROWS, 7])
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_ensemble_csv_is_per_row_repr(self, tmp_path, monkeypatch, alpha, block_rows):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
        cfg = load_config(write_config(tmp_path, **regime_fields(alpha)))
        stats = growpop.run_ensemble(cfg.sim, 8, 11)
        assert len(stats.grid) > cli._BLOCK_ROWS  # the table spans blocks
        assert (np.diff(stats.grid) == 0.0).any() and (np.diff(stats.mean_m1_dev) == 0.0).any()
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            emit_series_csv(stats, None)
        # the writer as it was before runs of equal values shared their text
        want = ["# seed=11", "t,mean_w,stderr_w,mean_v,stderr_v,mean_m1_dev,stderr_m1_dev"]
        values = [stats.grid, stats.mean_w, stats.stderr_w, stats.mean_v, stats.stderr_v,
                  stats.mean_m1_dev, stats.stderr_m1_dev]
        for vals in zip(*(col.tolist() for col in values)):
            want.append(",".join(map(repr, vals)))
        assert text.getvalue() == "\n".join(want) + "\n"

    @pytest.mark.parametrize("command", ["simulate", "ensemble"])
    def test_stdout_is_the_out_file(self, tmp_path, capsys, command):
        path = write_config(tmp_path, **regime_fields(0.5), runs=3)
        out = tmp_path / "out.csv"
        assert cmd_dispatch([command, "--config", path, "--out", str(out)]) == 0
        assert cmd_dispatch([command, "--config", path]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_conditions_and_envelope_csvs_are_per_value_repr(self, tmp_path, capsys):
        lambdas = (0.4, 1.6)
        cond = tmp_path / "cond.csv"
        assert cmd_dispatch(["conditions", "--alpha", "0.5", "--lambda", "0.4", "--lambda",
                             "1.6", "--n-max", "100000", "--out", str(cond)]) == 0
        grid, columns, verdict = analysis._conditions_table(0.5, lambdas, 100_000)
        want = [f"# classification={verdict.value}", "n,s_lambda_0,s_lambda_1"]
        want += [",".join([str(int(n))] + [repr(float(columns[lam][i])) for lam in lambdas])
                 for i, n in enumerate(grid)]
        assert cond.read_bytes() == ("\n".join(want) + "\n").encode()

        ns = [5, 5, 10, 20]  # a repeated n repeats its whole row
        path = write_config(tmp_path, envelope={"y0": 1.0, "lambda": 0.5, "n": ns,
                                                "jump": {"type": "harmonic", "c": 1.0}})
        env = tmp_path / "env.csv"
        assert cmd_dispatch(["envelope", "--config", path, "--out", str(env)]) == 0
        schedule = load_config(path).sim.schedule
        spec = growpop.EnvelopeSpec(decay_rate=0.5, y0=1.0,
                                    jump_bound=growpop.HarmonicScaled(c=1.0))
        want = ["n,t_n,bound"] + [
            f"{n},{growpop.injection_time(schedule, n)!r},"
            f"{growpop.envelope_bound(spec, schedule, n)!r}" for n in ns]
        assert env.read_bytes() == ("\n".join(want) + "\n").encode()


class TestDispatch:
    def test_envelope_t_n_is_the_time_its_bound_used(self, tmp_path, monkeypatch):
        # the bounds of every n, asked for in any order and with repeats, come
        # from one condition-sum pass; every n is below one chunk, so the pass
        # reads one chunk of times, and each row's t_n is the time its bound
        # used. Each bound is within a few ulps of its own envelope_bound pass:
        # the table carries a total from one n to the next, one rounding each
        read = []

        def recorded(schedule, lo, hi):
            t = schedules._times(schedule, lo, hi)
            read.append((lo, t))
            return t

        monkeypatch.setattr(analysis, "_times", recorded)
        ns = list(range(1, 1991, 7))
        ns = ns[::-1] + ns[5:9]
        path = write_config(tmp_path, schedule={"type": "power_exp", "alpha": 1.5, "n0": 10},
                            initial_opinions=None, max_agents=2000,
                            envelope={"y0": 1.0, "lambda": 0.7, "n": ns})
        out = tmp_path / "env.csv"
        assert cmd_dispatch(["envelope", "--config", path, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == ns
        assert len(read) == 1 and read[0][0] == 0
        assert [float(row[1]) for row in rows] == [float(read[0][1][n - 1]) for n in ns]
        monkeypatch.undo()
        spec = load_config(path).envelope.spec
        schedule = load_config(path).sim.schedule
        for n, row in zip(ns, rows):
            want = growpop.envelope_bound(spec, schedule, n)
            assert abs(float(row[2]) - want) <= 1e-14 * want, n

    def test_horizon_past_2_53_arrivals_exits_at_once(self, tmp_path):
        # about 2.7e43 arrivals up to t = 100, where consecutive times tie
        path = write_config(tmp_path, schedule={"type": "power_exp", "alpha": 1.0, "n0": 3},
                            max_agents=None, horizon=100.0)
        src = os.path.dirname(os.path.dirname(growpop.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "growpop.cli", "simulate", "--config", path],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert re.fullmatch(r"error: the arrivals up to t_end = 100\.0 do not fit in memory: "
                            r"population at t=100\.0 is about 2\.69e\+43 arrivals, past 2\*\*53, "
                            r"where arrival times tie\n", done.stderr), done.stderr

    def test_no_arguments_is_usage_error(self, capsys):
        assert cmd_dispatch([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cmd_dispatch(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert cmd_dispatch(["simulate"]) == 1

    def test_bad_config_is_runtime_error(self, tmp_path, capsys):
        path = write_config(tmp_path, schedule={"type": "power_exp", "alpha": 0.0})
        assert cmd_dispatch(["simulate", "--config", path]) == 2
        assert "schedule.alpha" in capsys.readouterr().err

    def test_error_without_a_message_is_named_by_its_type(self, tmp_path, monkeypatch,
                                                           capsys):
        def no_memory(*args):
            raise MemoryError()

        monkeypatch.setattr(growpop.cli, "run_simulation", no_memory)
        assert cmd_dispatch(["simulate", "--config", write_config(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: MemoryError\n"

    def test_timeline_beyond_memory_names_its_size(self, tmp_path, monkeypatch, capsys):
        # a horizon-only run whose timeline rows do not fit in memory
        def no_memory(*args):
            raise MemoryError()

        monkeypatch.setattr(growpop.dynamics, "_timeline_rows", no_memory)
        path = write_config(tmp_path, max_agents=None, horizon=3.0)
        assert cmd_dispatch(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: the rows of \d+ arrivals up to t_end = 3\.0 do not fit in "
                            r"memory\n", err), err

    @pytest.mark.parametrize("kernel", [{"type": "constant", "c": 1.0},
                                        {"type": "rational", "a": 0.5, "b": 0.5}],
                             ids=["constant", "rational"])
    def test_ensemble_reports_a_config_fault_as_simulate_does(self, tmp_path, capsys, kernel):
        # 10**17 arrivals do not fit in memory: no run is to blame
        path = write_config(tmp_path, kernel=kernel, max_agents=10**17)
        errs = []
        for argv in (["simulate"], ["ensemble", "--workers", "2"]):
            assert cmd_dispatch([*argv, "--config", path,
                                 "--out", str(tmp_path / "out.csv")]) == 2
            errs.append(capsys.readouterr())
        assert errs[0].err.startswith("error: the arrivals up to t_end = "), errs[0].err
        assert errs[1] == errs[0]
        assert not (tmp_path / "out.csv").exists()

    def test_missing_config_file_is_runtime_error(self, capsys):
        assert cmd_dispatch(["simulate", "--config", "/nonexistent.json"]) == 2

    def test_simulate_writes_csv(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "series.csv"
        assert cmd_dispatch(["simulate", "--config", path,
                             "--seed", "3", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# seed=3\n")
        assert "post_jump" in text

    def test_simulate_seed_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cmd_dispatch(["simulate", "--config", path, "--out", str(a)])
        cmd_dispatch(["simulate", "--config", path, "--seed", "17",
                      "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()  # config master_seed is 17

    @pytest.mark.parametrize("command", ["simulate", "ensemble"])
    def test_negative_master_seed_is_refused(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        path = write_config(tmp_path, master_seed=-1)
        assert cmd_dispatch([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: master_seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "ensemble"])
    def test_master_seed_past_2_64_is_refused(self, tmp_path, capsys, command):
        # derive_run_seed mixes 64 bits, so 2**64 would run as master seed 0
        out = tmp_path / "out.csv"
        path = write_config(tmp_path, master_seed=2**64)
        assert cmd_dispatch([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: master_seed must be an integer < 2**64, got {2**64}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "ensemble"])
    def test_seed_flag_past_2_64_is_named(self, tmp_path, capsys, command):
        path = write_config(tmp_path)
        assert cmd_dispatch([command, "--config", path, "--seed", str(2**64)]) == 2
        assert capsys.readouterr() == (
            "", f"error: --seed must be an integer < 2**64, got {2**64}\n")

    @pytest.mark.parametrize("command", ["simulate", "ensemble"])
    def test_negative_seed_flag_is_named(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        path = write_config(tmp_path)
        assert cmd_dispatch([command, "--config", path, "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    def test_simulate_stdout_fallback(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cmd_dispatch(["simulate", "--config", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# seed=17\n")

    def test_ensemble_writes_csv(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "stats.csv"
        assert cmd_dispatch(["ensemble", "--config", path, "--runs", "3",
                             "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "# seed=17"
        assert lines[1] == "t,mean_w,stderr_w,mean_v,stderr_v,mean_m1_dev,stderr_m1_dev"

    @pytest.mark.parametrize("command", ["simulate", "ensemble"])
    def test_rational_kernel_at_b_0_writes_the_constant_kernels_csv(self, tmp_path, command):
        # b = 0 is the constant kernel, so it takes the same exact flow
        outs = []
        for kernel in ({"type": "constant", "c": 0.8}, {"type": "rational", "a": 0.8, "b": 0}):
            path = write_config(tmp_path, kernel=kernel, max_agents=40,
                                record_grid={"type": "geometric", "t_first": 0.1, "points": 16})
            outs.append(tmp_path / f"{kernel['type']}.csv")
            assert cmd_dispatch([command, "--config", path, "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_ensemble_worker_flag_beats_config(self, tmp_path, capsys):
        path = write_config(tmp_path, workers=0)
        out = tmp_path / "stats.csv"
        # without the flag the config's bad value reaches run_ensemble's check
        assert cmd_dispatch(["ensemble", "--config", path, "--runs", "2",
                             "--out", str(out)]) == 2
        assert "workers must be an integer >= 1" in capsys.readouterr().err
        # the flag overrides it, so this succeeds
        assert cmd_dispatch(["ensemble", "--config", path, "--runs", "2",
                             "--workers", "1", "--out", str(out)]) == 0

    @pytest.mark.parametrize("flag, value, message", [
        ("--runs", "1", "--runs must be an integer >= 2, got 1"),
        ("--workers", "0", "--workers must be an integer >= 1, got 0"),
    ])
    def test_ensemble_flags_are_named(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "stats.csv"
        path = write_config(tmp_path)
        assert cmd_dispatch(["ensemble", "--config", path, flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "ensemble", "conditions", "envelope",
                                         "output_path"])
    @pytest.mark.parametrize("bad", ["missing directory", "directory"])
    def test_output_path_is_checked_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                     command, bad):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")

        for name in ("run_simulation", "run_ensemble", "_conditions_table", "_condition_sums"):
            monkeypatch.setattr(cli, name, no_work)
        out = str(tmp_path / "missing" / "x.csv") if bad == "missing directory" else str(tmp_path)
        before = sorted(tmp_path.iterdir())
        path = write_config(tmp_path, envelope={"y0": 1.0},
                            output_path=out if command == "output_path" else None)
        argv = {"simulate": ["simulate", "--config", path, "--out", out],
                "ensemble": ["ensemble", "--config", path, "--out", out],
                "conditions": ["conditions", "--alpha", "0.5", "--lambda", "0.4", "--out", out],
                "envelope": ["envelope", "--config", path, "--out", out],
                "output_path": ["simulate", "--config", path]}[command]
        assert cmd_dispatch(argv) == 2
        std = capsys.readouterr()
        assert std.out == "" and std.err.startswith(f"error: cannot write {out}: "), std.err
        # the check made nothing: only the config file is new
        assert sorted(tmp_path.iterdir()) == sorted([*before, tmp_path / "config.json"])

    @pytest.mark.parametrize("command", ["simulate", "ensemble"])
    def test_empty_output_path_is_refused_at_load(self, tmp_path, monkeypatch, capsys,
                                                  command):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the config was refused")

        for name in ("run_simulation", "run_ensemble"):
            monkeypatch.setattr(cli, name, no_work)
        path = write_config(tmp_path, output_path="")
        assert cmd_dispatch([command, "--config", path]) == 2
        assert capsys.readouterr() == ("", "error: output_path must name a file, got ''\n")
        assert sorted(tmp_path.iterdir()) == [tmp_path / "config.json"]

    @pytest.mark.parametrize("grid, message", [
        ({"type": "geometric", "points": 2**70}, "record_grid.points = 1180591620717411303424 "),
        ({"type": "geometric", "points": 10**11}, "record_grid.points = 100000000000 "),
        ({"type": "uniform", "dt": 1e-300}, "record_grid.dt = 1e-300 up to t_end = "),
    ])
    def test_record_grid_beyond_memory_names_its_field(self, tmp_path, monkeypatch, capsys,
                                                       grid, message):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the config was refused")

        geomspace = np.geomspace

        def refused(start, stop, num):
            # 10**11 points are 745 GiB: refused as numpy would, without trying
            if num == 10**11:
                raise MemoryError("Unable to allocate 745. GiB")
            return geomspace(start, stop, num)

        for name in ("run_simulation", "run_ensemble"):
            monkeypatch.setattr(cli, name, no_work)
        monkeypatch.setattr(np, "geomspace", refused)
        path = write_config(tmp_path, record_grid=grid)
        assert cmd_dispatch(["ensemble", "--config", path]) == 2
        std = capsys.readouterr()
        assert std.out == "" and std.err.startswith(f"error: {message}"), std.err
        assert "do not fit in memory" in std.err

    @pytest.mark.parametrize("grid", [{"type": "uniform", "dt": 0.1}, {"type": "geometric"},
                                      {"type": "geometric", "points": 8}])
    def test_run_that_ends_at_zero_records_no_grid_time(self, tmp_path, capsys, grid):
        # max_agents = n0: no arrival, so the run ends at t = 0, and a uniform
        # grid, or a geometric one without t_first, holds no time to record
        bare = write_config(tmp_path, "bare.json", max_agents=3, record_grid=None)
        assert cmd_dispatch(["simulate", "--config", bare]) == 0
        want = capsys.readouterr().out
        assert len(want.splitlines()) == 3  # the seed comment, the header, the t = 0 row
        path = write_config(tmp_path, max_agents=3, record_grid=grid)
        assert cmd_dispatch(["simulate", "--config", path]) == 0
        assert capsys.readouterr() == (want, "")

    @pytest.mark.parametrize("grid, message", [
        ({"type": "uniform", "dt": -1.0}, "record_grid.dt must be > 0 and finite, got -1.0"),
        ({"type": "geometric", "points": 1}, "record_grid.points must be an integer >= 2, got 1"),
        ({"type": "geometric", "step": 1}, "unknown field(s): record_grid.step"),
        ({"type": "geometric", "t_first": 0.5},
         "record_grid.t_first must be <= t_end, got 0.5, t_end = 0.0"),
    ])
    def test_run_that_ends_at_zero_checks_its_grid_fields(self, tmp_path, capsys, grid,
                                                          message):
        path = write_config(tmp_path, max_agents=3, record_grid=grid)
        assert cmd_dispatch(["simulate", "--config", path]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_envelope_n_past_an_explicit_schedule_is_named(self, tmp_path, monkeypatch,
                                                           capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("table work started before envelope.n was checked")

        monkeypatch.setattr(cli, "_condition_sums", no_work)
        path = write_config(tmp_path, schedule={"type": "explicit", "n0": 3,
                                                "times": [0.5, 1.0, 1.5]},
                            max_agents=6, envelope={"y0": 1.0, "n": [2, 5]})
        assert cmd_dispatch(["envelope", "--config", path]) == 2
        assert capsys.readouterr() == (
            "", "error: envelope.n = 5: schedule defines 3 times, need 5\n")

    def test_short_explicit_jump_bound_is_named(self, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("table work started before envelope.jump was checked")

        monkeypatch.setattr(cli, "_condition_sums", no_work)
        # the default n list reaches 1000
        path = write_config(tmp_path, envelope={"y0": 1.0, "jump": {"type": "explicit",
                                                                    "values": [0.5]}})
        assert cmd_dispatch(["envelope", "--config", path]) == 2
        assert capsys.readouterr() == (
            "", "error: envelope.n = 1000: envelope.jump defines 1 values, need 1000\n")

    def test_run_whose_default_t_first_underflows_writes_its_t_zero_row(self, tmp_path,
                                                                       capsys):
        # t_end / 100 is 0.0, so the default geometric grid holds no time, as
        # at t_end = 0, and no arrival comes before t_end: the run writes the
        # t = 0 row of the run that ends there
        bare = write_config(tmp_path, "bare.json", max_agents=3, record_grid=None)
        assert cmd_dispatch(["simulate", "--config", bare]) == 0
        want = capsys.readouterr().out
        path = write_config(tmp_path, max_agents=None, horizon=1e-322, record_grid=None)
        assert cmd_dispatch(["simulate", "--config", path]) == 0
        assert capsys.readouterr() == (want, "")
        assert len(want.splitlines()) == 3

    def test_config_without_dim_takes_its_sources(self, tmp_path, capsys):
        path = write_config(tmp_path, dim=None, initial_opinions=None,
                            source={"type": "gaussian", "mean": [0.25, -0.5], "sigma2": 1.0})
        assert cmd_dispatch(["simulate", "--config", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "t,n,m1_0,m1_1,m2,v,w,dissipation,event"
        assert lines[2].startswith("0.0,3,0.25,-0.5,")

    def test_source_of_another_dim_is_named_before_the_opinions(self, tmp_path, capsys):
        # opinions left out are the source's mean, so their shape follows it
        path = write_config(tmp_path, initial_opinions=None,
                            source={"type": "gaussian", "mean": [0.0, 1.0], "sigma2": 1.0})
        assert cmd_dispatch(["simulate", "--config", path]) == 2
        assert capsys.readouterr() == ("", "error: source.mean has dimension 2, config dim is 1\n")

    @pytest.mark.parametrize("argv, message", [
        (["--alpha", "-1", "--lambda", "1"], "--alpha must be > 0 and finite, got -1.0"),
        (["--alpha", "0.5", "--lambda", "0"], "--lambda must be > 0 and finite, got 0.0"),
    ])
    def test_conditions_flags_are_named(self, tmp_path, monkeypatch, capsys, argv, message):
        def no_work(*args, **kwargs):
            raise AssertionError("table work started before the flags were checked")

        for name in ("_conditions_table", "_condition_sums"):
            monkeypatch.setattr(cli, name, no_work)
        # the flags are checked before the output path
        out = str(tmp_path / "missing" / "x.csv")
        assert cmd_dispatch(["conditions", *argv, "--out", out]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_conditions_n_max_flag_below_10_is_named(self, capsys):
        # a config's conditions.n_max is checked at load, so only the flag
        # reaches this check
        assert cmd_dispatch(["conditions", "--alpha", "0.5", "--lambda", "0.4",
                             "--n-max", "9"]) == 2
        assert capsys.readouterr().err == "error: --n-max must be an integer >= 10, got 9\n"

    def test_conditions_table_boundary_rate(self, capsys):
        assert cmd_dispatch(["conditions", "--alpha", "1.0",
                             "--lambda", "1.0", "--n-max", "100000"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.strip().split("\n")]
        assert "S(lambda=1)" in lines[0]
        values = [float(ln.split()[-1]) for ln in lines[1:-1]]
        assert all(abs(v - 1.0) < 1e-12 for v in values)
        assert lines[-1] == "classification: exponential_boundary"

    def test_conditions_from_config(self, tmp_path, capsys):
        path = write_config(tmp_path, conditions={"n_max": 20000})
        assert cmd_dispatch(["conditions", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "classification: converges_c1" in out

    @pytest.mark.parametrize("n_max", [1000, 20000])  # in one chunk / across chunk edges
    @pytest.mark.parametrize("alpha, verdict", [(0.5, "converges_c1"),
                                                (1.0, "exponential_boundary"),
                                                (1.5, "fails_c2")])
    def test_conditions_table_matches_condition_sum(self, tmp_path, capsys,
                                                    alpha, verdict, n_max):
        lambdas = (0.4, 1.2)
        path = write_config(tmp_path, conditions={"lambdas": list(lambdas)})
        out = tmp_path / "cond.csv"
        assert cmd_dispatch(["conditions", "--config", path, "--alpha", str(alpha),
                             "--n-max", str(n_max), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"classification: {verdict}"
        lines = out.read_text().splitlines()
        assert lines[:2] == [f"# classification={verdict}", "n,s_lambda_0,s_lambda_1"]
        times = growpop.asymptotic_injection_times(alpha)
        rows = [line.split(",") for line in lines[2:]]
        assert [int(row[0]) for row in rows] == sorted(
            set(np.geomspace(10, n_max, 12).astype(int).tolist()))
        for n, *cells in rows:
            for lam, cell in zip(lambdas, cells, strict=True):
                want = growpop.condition_sum(lam, times, int(n))
                assert abs(float(cell) - want) <= 1e-15 * want, (n, lam, cell, want)

    def test_conditions_lambda_repeats(self, tmp_path, capsys, monkeypatch):
        # one column per --lambda, in the order given; the verdict is checked
        # on the smallest and the largest rate
        bounds = []
        classify = analysis._classify

        def recorded(alpha, psi_star, psi_max, *rest):
            bounds.append((psi_star, psi_max))
            return classify(alpha, psi_star, psi_max, *rest)

        monkeypatch.setattr(analysis, "_classify", recorded)
        out = tmp_path / "cond.csv"
        assert cmd_dispatch(["conditions", "--alpha", "1.5", "--lambda", "1.6",
                             "--lambda", "0.4", "--lambda", "1.0", "--n-max", "10000",
                             "--out", str(out)]) == 0
        head = capsys.readouterr().out.splitlines()[0].split()
        assert head == ["n", "S(lambda=1.6)", "S(lambda=0.4)", "S(lambda=1)"]
        assert bounds == [(0.4, 1.6)]
        lines = out.read_text().splitlines()
        assert lines[:2] == ["# classification=fails_c2", "n,s_lambda_0,s_lambda_1,s_lambda_2"]
        times = growpop.asymptotic_injection_times(1.5)
        n, *cells = lines[-1].split(",")
        for lam, cell in zip((1.6, 0.4, 1.0), cells, strict=True):
            want = growpop.condition_sum(lam, times, int(n))
            assert abs(float(cell) - want) <= 1e-15 * want, (lam, cell, want)

    def test_conditions_without_alpha_is_usage_error(self, capsys):
        assert cmd_dispatch(["conditions", "--lambda", "1.0"]) == 1

    def test_parser_is_reused_across_calls(self, capsys):
        # the parser is built once per process: neither a usage error nor a
        # repeated --lambda leaves anything behind for the next call to read
        argv = ["conditions", "--alpha", "1.5", "--lambda", "0.4", "--lambda", "1.6",
                "--n-max", "1000"]
        assert cmd_dispatch(["conditions", "--lambda", "1.0"]) == 1
        capsys.readouterr()
        assert cli._build_parser() is cli._build_parser()
        outs = []
        for _ in range(2):
            assert cmd_dispatch(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].split("\n")[0].split() == ["n", "S(lambda=0.4)", "S(lambda=1.6)"]

    def test_conditions_csv_output(self, tmp_path, capsys):
        out = tmp_path / "cond.csv"
        assert cmd_dispatch(["conditions", "--alpha", "0.5", "--lambda", "1.0",
                             "--n-max", "10000", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "# classification=converges_c1"
        assert lines[1] == "n,s_lambda_0"

    def test_conditions_classify_alpha_just_below_one(self, capsys):
        # S(0.4, n) at alpha 0.9 rises until n ~ 230 and then decays; the
        # band about F holds on the rise as on the fall, so the verdict stands
        assert cmd_dispatch(["conditions", "--alpha", "0.9", "--lambda", "0.4",
                             "--lambda", "1.6", "--n-max", "10000"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "classification: converges_c1"

    def test_envelope_requires_block(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cmd_dispatch(["envelope", "--config", path]) == 2
        assert "envelope" in capsys.readouterr().err

    def test_envelope_table(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            envelope={"y0": 1.0, "lambda": 1.0,
                      "jump": {"type": "harmonic", "c": 1.0},
                      "n": [5, 10]},
        )
        assert cmd_dispatch(["envelope", "--config", path]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split() == ["n", "t_n", "bound"]
        assert len(lines) == 3

    def test_check_passes(self, capsys):
        assert cmd_dispatch(["check"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok:") == 4
        assert "ok: energy balance" in out
        assert "FAIL" not in out
