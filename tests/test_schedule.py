"""Arrival schedules: pinned injection times and the population count.

The power-exponential family pins t_j = (ln(n0 + j))**(1/alpha); the
population count must agree with those pinned times *exactly*, i.e.
population_at(s, t_j) == n0 + j and one ulp earlier it is n0 + j - 1.
"""

import json
import math

import numpy as np
import pytest

import growpop as gp
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


def _sim_config(dim, max_agents):
    cfg = gp.SimConfig(dim=dim, kernel=gp.constant_kernel(1.0),
                       schedule=PowerExponentialSchedule(alpha=0.5, n0=2),
                       source=gp.gaussian_source(0.0, 1.0), initial_opinions=np.zeros((2, 1)),
                       max_agents=max_agents)
    return cfg.dim, cfg.max_agents


def _ensemble_statistic(runs, master_seed, workers, at_k):
    config = gp.SimConfig(dim=1, kernel=gp.constant_kernel(1.0),
                          schedule=PowerExponentialSchedule(alpha=0.5, n0=2),
                          source=gp.gaussian_source(0.0, 1.0),
                          initial_opinions=np.array([[0.5], [-0.5]]), max_agents=6)
    stats = gp.run_ensemble(config, runs, master_seed, workers=workers)
    return gp.ensemble_statistic(stats, "v", at_k)


_PRE_JUMP = gp.MomentRecord(t=0.0, n=4, m1=np.array([0.25]), m2=1.0, v=0.9375, w=1.0,
                            dissipation=0.0)

# each entry point as a function of its integer arguments, and their values
INTEGER_ARGUMENTS = [
    pytest.param(lambda j: injection_time(PowerExponentialSchedule(alpha=0.5, n0=2), j),
                 (3,), id="injection_time"),
    pytest.param(lambda n0: PowerExponentialSchedule(alpha=0.5, n0=n0), (2,),
                 id="PowerExponentialSchedule"),
    pytest.param(lambda n0: ExplicitSchedule(n0=n0, times=(1.0,)), (2,), id="ExplicitSchedule"),
    pytest.param(lambda k, n0: gp.predict_jumps(_PRE_JUMP, [1.5], k, n0), (2, 3),
                 id="predict_jumps"),
    pytest.param(lambda n0, k: gp.expected_m1_deviation(n0, k, [[0.5], [-0.5]], [0.0], 1.0),
                 (2, 5), id="expected_m1_deviation"),
    pytest.param(gp.variance_jump_coefficient, (3, 2), id="variance_jump_coefficient"),
    pytest.param(gp.derive_run_seed, (7, 3), id="derive_run_seed"),
    pytest.param(_sim_config, (1, 5), id="SimConfig"),
    pytest.param(lambda points: gp.geometric_record_grid(0.5, 30.0, points), (16,),
                 id="geometric_record_grid"),
    pytest.param(_ensemble_statistic, (3, 4, 1, 2), id="run_ensemble"),
    pytest.param(lambda n: gp.condition_sum(1.0, gp.asymptotic_injection_times(0.5), n),
                 (50,), id="condition_sum"),
    pytest.param(lambda n: gp.AsymptoticTimes(1.0).array(n), (3,), id="AsymptoticTimes.array"),
]


@pytest.mark.parametrize("call, ints", INTEGER_ARGUMENTS)
def test_integer_arguments_take_numpy_integers_and_reject_bools(call, ints):
    want = call(*ints)
    # equal reprs: same values, and a stored integer is an int, not an np.int64
    assert repr(call(*map(np.int64, ints))) == repr(want)
    for i in range(len(ints)):
        for bad in (True, 2.5):
            with pytest.raises(ValueError, match="must be an integer"):
                call(*ints[:i], bad, *ints[i + 1:])
