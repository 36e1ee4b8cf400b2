"""Arrival schedules: pinned injection times and the population count.

The power-exponential family pins t_j = (ln(n0 + j))**(1/alpha); the
population count must agree with those pinned times *exactly*, i.e.
population_at(s, t_j) == n0 + j and one ulp earlier it is n0 + j - 1.
"""

import json
import math

import numpy as np
import pytest

from growpop import (
    ExplicitSchedule,
    PowerExponentialSchedule,
    final_injection_count,
    injection_time,
    population_at,
)
from growpop.cli import ConfigError, load_config

RNG = np.random.default_rng(8128)


class TestPowerExponentialTimes:
    @pytest.mark.parametrize("alpha,n0,j", [(0.5, 1, 1), (0.5, 10, 7),
                                            (1.0, 3, 12), (2.0, 5, 100)])
    def test_pinned_formula(self, alpha, n0, j):
        s = PowerExponentialSchedule(alpha=alpha, n0=n0)
        assert injection_time(s, j) == math.log(n0 + j) ** (1.0 / alpha)

    def test_time_zero_convention(self):
        s = PowerExponentialSchedule(alpha=0.5, n0=4)
        assert injection_time(s, 0) == 0.0

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.7])
    def test_strictly_increasing(self, alpha):
        s = PowerExponentialSchedule(alpha=alpha, n0=2)
        times = [injection_time(s, j) for j in range(1, 2000)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_small_alpha_means_fast_growth(self):
        fast = PowerExponentialSchedule(alpha=0.5, n0=2)
        slow = PowerExponentialSchedule(alpha=1.5, n0=2)
        assert injection_time(fast, 1000) > injection_time(slow, 1000)
        # at a common horizon the slow-alpha schedule has admitted more agents
        t = 3.0
        assert population_at(slow, t) > population_at(fast, t)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, math.inf, math.nan])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            PowerExponentialSchedule(alpha=alpha, n0=1)

    @pytest.mark.parametrize("n0", [0, -3, 1.5])
    def test_rejects_bad_n0(self, n0):
        with pytest.raises(ValueError):
            PowerExponentialSchedule(alpha=0.5, n0=n0)


class TestPopulationCount:
    @pytest.mark.parametrize("alpha,n0", [(0.5, 1), (0.5, 10), (1.0, 2),
                                          (1.7, 3), (2.0, 25)])
    def test_exact_at_injection_instants(self, alpha, n0):
        s = PowerExponentialSchedule(alpha=alpha, n0=n0)
        for j in list(range(1, 60)) + [500, 5000, 123456]:
            t_j = injection_time(s, j)
            assert population_at(s, t_j) == n0 + j
            before = np.nextafter(t_j, 0.0)
            assert population_at(s, before) == n0 + j - 1

    def test_zero_time(self):
        s = PowerExponentialSchedule(alpha=0.5, n0=7)
        assert population_at(s, 0.0) == 7

    @pytest.mark.parametrize("alpha,n0", [(0.5, 1), (1.5, 4)])
    def test_matches_brute_count(self, alpha, n0):
        s = PowerExponentialSchedule(alpha=alpha, n0=n0)
        horizon = injection_time(s, 400)
        times = np.array([injection_time(s, j) for j in range(1, 1001)])
        for t in RNG.uniform(0.0, horizon, size=200):
            assert population_at(s, t) == n0 + int(np.sum(times <= t))

    def test_negative_time_rejected(self):
        s = PowerExponentialSchedule(alpha=1.0, n0=1)
        with pytest.raises(ValueError):
            population_at(s, -1e-9)

    def test_overflow_guard(self):
        s = PowerExponentialSchedule(alpha=1.0, n0=1)
        with pytest.raises(OverflowError):
            population_at(s, 800.0)


class TestExplicitSchedule:
    def test_population_steps_right_continuously(self):
        s = ExplicitSchedule(n0=3, times=(1.0, 2.5, 2.75))
        assert population_at(s, 0.0) == 3
        assert population_at(s, 1.0) == 4           # jump counted at t_j
        assert population_at(s, np.nextafter(1.0, 0.0)) == 3
        assert population_at(s, 2.6) == 5
        assert population_at(s, 100.0) == 6

    def test_injection_time_lookup(self):
        s = ExplicitSchedule(n0=1, times=(0.5, 1.25))
        assert injection_time(s, 0) == 0.0
        assert injection_time(s, 2) == 1.25
        with pytest.raises(ValueError):
            injection_time(s, 3)

    def test_final_injection_count(self):
        assert final_injection_count(ExplicitSchedule(n0=1, times=(0.5, 1.0))) == 2
        assert final_injection_count(PowerExponentialSchedule(alpha=0.5, n0=1)) is None

    @pytest.mark.parametrize("times", [(0.0, 1.0), (-1.0,), (1.0, 1.0),
                                       (2.0, 1.0), (1.0, math.nan)])
    def test_rejects_non_increasing_times(self, times):
        with pytest.raises(ValueError):
            ExplicitSchedule(n0=1, times=times)


def load_schedule(tmp_path, spec):
    """The schedule that load_config builds from the block ``spec``."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "kernel": {"type": "constant", "c": 1.0},
        "schedule": spec,
        "source": {"type": "gaussian", "mean": 0.0, "sigma2": 1.0},
        "horizon": 1.0,
    }))
    return load_config(str(path)).sim.schedule


class TestConfig:
    def test_power_exp_round_trip(self, tmp_path):
        s = load_schedule(tmp_path, {"type": "power_exp", "alpha": 0.5, "n0": 10})
        assert s == PowerExponentialSchedule(alpha=0.5, n0=10)

    def test_explicit_round_trip(self, tmp_path):
        s = load_schedule(tmp_path, {"type": "explicit", "times": [1.0, 2.0], "n0": 4})
        assert s == ExplicitSchedule(n0=4, times=(1.0, 2.0))

    def test_default_n0(self, tmp_path):
        s = load_schedule(tmp_path, {"type": "power_exp", "alpha": 1.0})
        assert s.n0 == 1

    def test_zero_alpha_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match=r"schedule\.alpha must be > 0"):
            load_schedule(tmp_path, {"type": "power_exp", "alpha": 0.0})

    def test_bad_times_name_field(self, tmp_path):
        with pytest.raises(ConfigError, match=r"schedule\.times"):
            load_schedule(tmp_path, {"type": "explicit", "times": [2.0, 1.0]})

    def test_unknown_type(self, tmp_path):
        with pytest.raises(ConfigError, match=r"schedule\.type"):
            load_schedule(tmp_path, {"type": "linear"})
