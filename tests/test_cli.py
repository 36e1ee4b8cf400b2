"""Config loading, CSV emission, and the command-line contract.

Exit codes are part of the interface: 0 success, 1 usage error, 2 runtime
error. CSV files must round-trip bit for bit (repr floats, LF newlines) and
start with the seed comment.
"""

import importlib
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
from growpop.cli import ConfigError, cmd_dispatch, emit_series_csv, load_config

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
        assert cfg.sim.kernel.kind == "constant"
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

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 1,\n  "kernel": }')
        with pytest.raises(ConfigError, match=r"line 2"):
            load_config(str(path))

    def test_zero_alpha_names_field(self, tmp_path):
        path = write_config(tmp_path, schedule={"type": "power_exp",
                                                "alpha": 0.0, "n0": 3})
        with pytest.raises(ConfigError, match=r"schedule\.alpha"):
            load_config(path)

    def test_zero_sigma2_accepted_with_warning(self, tmp_path):
        path = write_config(tmp_path, source={"type": "gaussian", "mean": 0.0,
                                              "sigma2": 0.0})
        with pytest.warns(UserWarning, match="sigma2"):
            cfg = load_config(path)
        assert cfg.sim.source.sigma2 == 0.0

    def test_negative_sigma2_names_field(self, tmp_path):
        path = write_config(tmp_path, source={"type": "gaussian", "mean": 0.0,
                                              "sigma2": -1.0})
        with pytest.raises(ConfigError, match=r"source\.sigma2"):
            load_config(path)

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
        (BASE_CONFIG, "track_dissipation_integral", "no"),
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

    def test_full_config_loads(self, tmp_path):
        cfg = load_spec(tmp_path, FULL_CONFIG)
        assert cfg.workers == 2 and cfg.conditions.lambdas == (0.5, 1.0)
        assert cfg.envelope.decay_rate == 0.5 and cfg.envelope.n_values == (5, 10)

    @PROBE_SETTINGS
    @given(field=st.sampled_from(NUMERIC_FIELDS),
           value=st.sampled_from([True, False, "1", math.nan, math.inf, -math.inf]))
    def test_any_numeric_field_rejects_non_numbers(self, tmp_path, field, value):
        base, path = field
        with pytest.raises(ConfigError, match=re.escape(field_name(path))):
            load_spec(tmp_path, with_field(base, path, value))

    @pytest.mark.parametrize("path", ["step", "kernel.c", "record_grid.dt",
                                      "envelope.decay_rate", "envelope.n_values"])
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
        built = getattr(growpop, f"{kind}_source")(mean, sigma2)
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


class TestPackageSurface:
    @pytest.mark.parametrize("module", ["growpop"] + [
        f"growpop.{name}" for name in ("kernels", "schedules", "sources", "observables",
                                       "dynamics", "montecarlo", "analysis", "cli")])
    def test_every_public_name_resolves(self, module):
        mod = importlib.import_module(module)
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == []

    def test_cli_runs_as_module_without_warnings(self):
        src = os.path.dirname(os.path.dirname(growpop.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "growpop.cli", "check"], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0
        assert done.stderr == ""


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

    def test_floats_round_trip_exactly(self, tmp_path):
        series = self.run_series(tmp_path)
        out = tmp_path / "run.csv"
        emit_series_csv(series, str(out))
        lines = out.read_text().strip().split("\n")[2:]
        assert len(lines) == len(series.rows)
        for line, row in zip(lines, series.rows):
            cells = line.split(",")
            assert float(cells[0]) == row.record.t
            assert int(cells[1]) == row.record.n
            assert float(cells[2]) == row.record.m1[0]
            assert float(cells[4]) == row.record.v
            assert cells[-1] == row.event

    def test_identical_runs_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_series_csv(self.run_series(tmp_path), str(a))
        emit_series_csv(self.run_series(tmp_path), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unsupported_object_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_series_csv({"not": "a series"}, str(tmp_path / "x.csv"))


class TestDispatch:
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

    def test_ensemble_worker_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GROWPOP_WORKERS", "not-a-number")
        path = write_config(tmp_path)
        out = tmp_path / "stats.csv"
        # flag overrides the (bad) environment value, so this succeeds
        assert cmd_dispatch(["ensemble", "--config", path, "--runs", "2",
                             "--workers", "1", "--out", str(out)]) == 0

    def test_ensemble_env_workers_used_without_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GROWPOP_WORKERS", "2")
        path = write_config(tmp_path)
        out = tmp_path / "stats.csv"
        assert cmd_dispatch(["ensemble", "--config", path, "--runs", "4",
                             "--out", str(out)]) == 0

    def test_ensemble_bad_env_workers_is_runtime_error(self, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.setenv("GROWPOP_WORKERS", "zero")
        path = write_config(tmp_path)
        assert cmd_dispatch(["ensemble", "--config", path, "--runs", "2"]) == 2
        assert "GROWPOP_WORKERS" in capsys.readouterr().err

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

    def test_conditions_without_alpha_is_usage_error(self, capsys):
        assert cmd_dispatch(["conditions", "--lambda", "1.0"]) == 1

    def test_conditions_csv_output(self, tmp_path, capsys):
        out = tmp_path / "cond.csv"
        assert cmd_dispatch(["conditions", "--alpha", "0.5", "--lambda", "1.0",
                             "--n-max", "10000", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "# classification=converges_c1"
        assert lines[1] == "n,s_lambda_0"

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
        assert out.count("ok:") == 3
        assert "FAIL" not in out
