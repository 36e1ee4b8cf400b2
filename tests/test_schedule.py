"""Arrival schedules: pinned injection times and the population count.

The power-exponential family pins t_j = (ln(n0 + j))**(1/alpha), and every
reader takes its times from ``schedules._times``, whose slices agree with one
full array bit for bit. The population count must agree with those pinned
times *exactly*, i.e. population_at(s, t_j) == n0 + j and one ulp earlier it
is n0 + j - 1.
"""

import json
import math
from decimal import Decimal

import numpy as np
import pytest

import growpop as gp
from growpop import (
    ExplicitSchedule,
    PowerExponentialSchedule,
    injection_time,
    population_at,
)
from growpop.cli import ConfigError, cmd_dispatch, load_config
from growpop.schedules import _times

RNG = np.random.default_rng(8128)


class TestPowerExponentialTimes:
    @pytest.mark.parametrize("alpha,n0,j", [(0.5, 1, 1), (0.5, 10, 7),
                                            (1.0, 3, 12), (2.0, 5, 100)])
    def test_pinned_formula(self, alpha, n0, j):
        s = PowerExponentialSchedule(alpha=alpha, n0=n0)
        assert injection_time(s, j) == _times(s, 0, 200)[j - 1]
        # the formula itself, to rounding
        assert injection_time(s, j) == pytest.approx(math.log(n0 + j) ** (1.0 / alpha),
                                                     rel=1e-15)

    def test_overflow_refused(self):
        s = PowerExponentialSchedule(alpha=0.001, n0=10)
        with pytest.raises(OverflowError, match="t_5 .* exceeds the floating-point range"):
            injection_time(s, 5)

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

    @pytest.mark.parametrize("n0", [-3, 1.5])
    def test_rejects_bad_n0(self, n0):
        with pytest.raises(ValueError, match="n0 must be an integer >= 0"):
            PowerExponentialSchedule(alpha=0.5, n0=n0)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 3.0])
    def test_asymptotic_scale_is_the_schedule_with_no_founders(self, alpha):
        assert gp.asymptotic_injection_times(alpha) == PowerExponentialSchedule(alpha=alpha, n0=0)

    def test_a_run_needs_a_founder(self):
        # n0 = 0 is a time scale, not a run: SimConfig names the field
        with pytest.raises(ValueError, match=r"^schedule\.n0 must be an integer >= 1, got 0$"):
            gp.SimConfig(kernel=gp.constant_kernel(1.0),
                         schedule=PowerExponentialSchedule(0.5, n0=0),
                         source=gp.gaussian_source(0.0, 1.0), horizon=1.0)


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

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_counts_the_asymptotic_scale(self, alpha):
        # with no founders t_1 = ln 1 = 0, so the first arrival is in at t = 0
        s = gp.asymptotic_injection_times(alpha)
        assert injection_time(s, 1) == 0.0
        assert population_at(s, 0.0) == 1
        for k in [1, 2, 3, 10, 57, 1000, 12345, 10**5, 654321, 10**6]:
            t_k = injection_time(s, k)
            assert population_at(s, t_k) == k
            if k > 1:
                assert population_at(s, np.nextafter(t_k, 0.0)) == k - 1

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

    @pytest.mark.parametrize("t", [50.0, 100.0, 700.0])
    def test_past_2_53_arrivals_refused_at_once(self, t):
        # there consecutive times tie, and settling the guess by stepping
        # through the ties would take longer than any run could
        s = PowerExponentialSchedule(alpha=1.0, n0=3)
        with pytest.raises(OverflowError, match=rf"population at t={t} .* past 2\*\*53"):
            population_at(s, t)

    @pytest.mark.parametrize("alpha, t, about", [(1.0, 100.0, "2.69e+43"),
                                                  (2.0, 26.0, "3.83e+293")])
    def test_count_past_2_53_is_printed_to_three_digits(self, alpha, t, about):
        s = PowerExponentialSchedule(alpha=alpha, n0=3)
        with pytest.raises(OverflowError) as err:
            population_at(s, t)
        assert str(err.value) == (f"population at t={t} is about {about} arrivals, past 2**53, "
                                  "where arrival times tie")

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_counts_below_2_53_arrivals_settle_among_ties(self, alpha):
        # up to 2**53 arrivals the count is settled: N(t) - n0 is the last j
        # with t_j <= t, though times tie there
        s = PowerExponentialSchedule(alpha=alpha, n0=3)
        for t in (36.0 ** (1 / alpha), math.log(2.0**53 - 100) ** (1 / alpha)):
            j = population_at(s, t) - 3
            assert j > 2**51 and injection_time(s, j) <= t < injection_time(s, j + 1)


# both families, the n0 = 0 scale and an explicit schedule
SCALES = [
    *(pytest.param(PowerExponentialSchedule(alpha=alpha, n0=n0), id=f"power-{alpha:.3g}-{n0}")
      for alpha in (1 / 3, 0.5, 0.9, 1.5, 2.0) for n0 in (1, 10)),
    *(pytest.param(gp.asymptotic_injection_times(alpha), id=f"asymptotic-{alpha}")
      for alpha in (0.5, 1.5)),
    pytest.param(ExplicitSchedule(
        n0=2, times=np.cumsum(np.random.default_rng(5).uniform(0.01, 1.0, size=20000))),
        id="explicit"),
]


class TestTimesReader:
    @pytest.mark.parametrize("schedule", SCALES)
    def test_slices_are_the_full_array_bit_for_bit(self, schedule):
        # the full array is longer than the integer ramp, so its integers come
        # from np.arange, and those of slices of at most 8,192 from the ramp
        full = _times(schedule, 0, 20000)
        rng = np.random.default_rng(6)
        for lo, hi in np.sort(rng.integers(0, 20001, size=(300, 2)), axis=1).tolist():
            assert _times(schedule, lo, hi).tobytes() == full[lo:hi].tobytes(), (lo, hi)
        for j in rng.integers(1, 20001, size=300).tolist():
            assert _times(schedule, j - 1, j).tobytes() == full[j - 1:j].tobytes(), j
        assert [injection_time(schedule, j) for j in range(1, 20001)] == full.tolist()

    @pytest.mark.parametrize("n0", [0, 1, 10], ids=lambda n0: f"n0={n0}")
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_power_family_is_the_log_of_its_integers(self, alpha, n0):
        # t_j = ln(n0 + j) with no power taken at alpha = 1, its power 1/alpha
        # otherwise, for slices inside the 8,192-value ramp, straddling its
        # end, past it, longer than it, and ending at 2**53, the last integer
        # the ramp serves; n0 = 0 is the condition sums' scale. A time scale
        # shifted by one index, which the classifier's band cannot see at
        # alpha 0.5, fails here.
        schedule = PowerExponentialSchedule(alpha=alpha, n0=n0)
        for lo, hi in [(0, 1), (0, 8192), (8000, 8400), (8191, 8193), (8192, 16384),
                       (20000, 20001), (3, 20003), (10**6, 10**6 + 8192),
                       (2**53 - n0 - 8, 2**53 - n0)]:
            want = np.log(np.arange(n0 + lo + 1, n0 + hi + 1, dtype=float))
            if alpha != 1.0:
                want **= 1.0 / alpha
            assert _times(schedule, lo, hi).tobytes() == want.tobytes(), (lo, hi)

    def test_returns_a_new_array(self):
        s = ExplicitSchedule(n0=1, times=(1.0, 2.0, 3.0))
        _times(s, 0, 3)[0] = 9.0
        assert _times(s, 0, 3).tolist() == [1.0, 2.0, 3.0]
        assert _times(s, 1, 1).size == 0

    def test_explicit_times_past_the_end_raise(self):
        s = ExplicitSchedule(n0=1, times=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="schedule defines 3 times, need 4"):
            _times(s, 2, 4)

    def test_overflow_raises_without_a_warning(self):
        # pytest turns a leaked RuntimeWarning into an error
        with pytest.raises(OverflowError, match="t_8192"):
            gp.condition_sum(1.0, gp.asymptotic_injection_times(0.001), 10**4)
        # the times below the float's range are still read
        assert np.isfinite(_times(gp.asymptotic_injection_times(0.001), 0, 7)).all()

    def test_conditions_cli_refuses_an_overflowing_scale(self, capsys):
        assert cmd_dispatch(["conditions", "--alpha", "0.001", "--lambda", "1.0"]) == 2
        assert "exceeds the floating-point range" in capsys.readouterr().err


class TestExplicitSchedule:
    def test_population_steps_right_continuously(self):
        s = ExplicitSchedule(n0=3, times=(1.0, 2.5, 2.75))
        assert population_at(s, 0.0) == 3
        assert population_at(s, 1.0) == 4           # jump counted at t_j
        assert population_at(s, np.nextafter(1.0, 0.0)) == 3
        assert population_at(s, 2.6) == 5
        assert population_at(s, 100.0) == 6
        assert population_at(s, math.inf) == 6

    def test_injection_time_lookup(self):
        s = ExplicitSchedule(n0=1, times=(0.5, 1.25))
        assert injection_time(s, 0) == 0.0
        assert injection_time(s, 2) == 1.25
        with pytest.raises(ValueError):
            injection_time(s, 3)

    def test_schedule_shorter_than_max_agents_is_refused(self, tmp_path):
        # max_agents = 8 from n0 = 3 needs 5 arrivals; the schedule has 3
        message = r"max_agents = 8: schedule defines 3 times, need 5"
        with pytest.raises(ValueError, match=rf"^{message}$"):
            gp.SimConfig(dim=1, kernel=gp.constant_kernel(1.0),
                         schedule=ExplicitSchedule(n0=3, times=(1.0, 2.0, 3.0)),
                         source=gp.gaussian_source(0.0, 1.0), initial_opinions=np.zeros((3, 1)),
                         max_agents=8)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "kernel": {"type": "constant", "c": 1.0},
            "schedule": {"type": "explicit", "n0": 3, "times": [1.0, 2.0, 3.0]},
            "source": {"type": "gaussian", "mean": 0.0, "sigma2": 1.0},
            "max_agents": 8,
        }))
        with pytest.raises(ConfigError, match=rf"^{message}$"):
            load_config(str(path))

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

    def test_schedules_declare_one_founder(self, tmp_path):
        assert PowerExponentialSchedule(alpha=1.0) == PowerExponentialSchedule(alpha=1.0, n0=1)
        assert ExplicitSchedule(times=(1.0, 2.0)) == ExplicitSchedule(times=(1.0, 2.0), n0=1)
        s = load_schedule(tmp_path, {"type": "explicit", "times": [0.5]})
        assert s == ExplicitSchedule(times=(0.5,))

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
    pytest.param(gp.derive_run_seed, (7, 3), id="derive_run_seed"),
    pytest.param(_sim_config, (1, 5), id="SimConfig"),
    pytest.param(lambda points: gp.geometric_record_grid(0.5, 30.0, points), (16,),
                 id="geometric_record_grid"),
    pytest.param(_ensemble_statistic, (3, 4, 1, 2), id="run_ensemble"),
    pytest.param(lambda n: gp.condition_sum(1.0, gp.asymptotic_injection_times(0.5), n),
                 (50,), id="condition_sum"),
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


_STATE = gp.SimState(t=0.0, k=0, opinions=np.array([[0.0], [1.0]]), dim=1)


def _sim_config_floats(step_max, horizon, record_time):
    cfg = gp.SimConfig(dim=1, kernel=gp.constant_kernel(1.0),
                       schedule=PowerExponentialSchedule(alpha=0.5, n0=2),
                       source=gp.gaussian_source(0.0, 1.0), initial_opinions=np.zeros((2, 1)),
                       step_max=step_max, horizon=horizon, record_grid=(record_time,))
    return cfg.step_max, cfg.horizon, cfg.record_grid


# each entry point as a function of its real arguments, their values, and the
# parameter names its errors give
FLOAT_ARGUMENTS = [
    pytest.param(gp.constant_kernel, (1.3,), ("c",), id="constant_kernel"),
    pytest.param(gp.rational_kernel, (0.5, 1.5), ("a", "b"), id="rational_kernel"),
    pytest.param(lambda alpha: PowerExponentialSchedule(alpha=alpha, n0=2), (0.5,), ("alpha",),
                 id="PowerExponentialSchedule"),
    pytest.param(lambda sigma2: gp.gaussian_source(0.0, sigma2), (0.75,), ("sigma2",),
                 id="gaussian_source"),
    pytest.param(lambda mean: gp.gaussian_source(mean, 1.0), (0.25,), ("mean",),
                 id="gaussian_source mean"),
    pytest.param(lambda mean: gp.uniform_source([0.5, mean], 1.0), (0.25,), ("mean",),
                 id="uniform_source mean vector"),
    pytest.param(lambda t: ExplicitSchedule(n0=1, times=(0.5, t)), (2.0,), ("times",),
                 id="ExplicitSchedule times"),
    pytest.param(lambda t: population_at(PowerExponentialSchedule(alpha=0.5, n0=2), t), (3.0,),
                 ("t",), id="population_at"),
    pytest.param(lambda sigma2: gp.expected_m1_deviation(2, 5, [[0.5], [-0.5]], [0.0], sigma2),
                 (0.75,), ("sigma2",), id="expected_m1_deviation"),
    pytest.param(lambda step_max, t_end: gp.integrate_interval(
        _STATE, gp.rational_kernel(0.5, 0.5), t_end, step_max), (0.1, 0.55),
                 ("step_max", "t_end"), id="integrate_interval"),
    pytest.param(_sim_config_floats, (0.1, 2.0, 0.5), ("step_max", "horizon", "record_grid"),
                 id="SimConfig"),
    pytest.param(gp.uniform_record_grid, (1.0, 0.25), ("t_end", "dt"),
                 id="uniform_record_grid"),
    pytest.param(lambda t_first, t_end: gp.geometric_record_grid(t_first, t_end, 16),
                 (0.5, 30.0), ("t_first", "t_end"), id="geometric_record_grid"),
    pytest.param(gp.asymptotic_injection_times, (0.5,), ("alpha",),
                 id="asymptotic_injection_times"),
    pytest.param(lambda lam: gp.condition_sum(lam, gp.asymptotic_injection_times(0.5), 50),
                 (1.0,), ("lambda",), id="condition_sum"),
    pytest.param(gp.dawson_f, (2.0, 1.0, 3.0), ("p", "rate", "x"), id="dawson_f"),
    pytest.param(lambda alpha, psi_star, psi_max: gp.classify_schedule(
        alpha, psi_star, psi_max, n_max=10_000), (0.5, 0.4, 1.6),
                 ("alpha", "psi_star", "psi_max"), id="classify_schedule"),
    pytest.param(lambda rate, y0: gp.envelope_bound(
        gp.EnvelopeSpec(decay_rate=rate, y0=y0, jump_bound=gp.HarmonicScaled(c=1.0)),
        gp.asymptotic_injection_times(1.0), 20), (0.5, 1.0), ("decay_rate", "y0"),
                 id="envelope_bound"),
    pytest.param(gp.HarmonicScaled, (1.0,), ("c",), id="HarmonicScaled"),
    pytest.param(lambda value: gp.ExplicitJumps(values=(0.5, value)), (0.25,), ("values",),
                 id="ExplicitJumps"),
]


@pytest.mark.parametrize("call, floats, names", FLOAT_ARGUMENTS)
def test_float_arguments_take_numpy_floats_and_reject_other_types(call, floats, names):
    want = call(*floats)
    # equal reprs: same values, and a stored number is a float, not an np.float64
    assert repr(call(*map(np.float64, floats))) == repr(want)
    for i, name in enumerate(names):
        # real scalars only: a 0-d array or a Decimal is refused, not converted
        for bad in (True, np.True_, "0.5", np.asarray(0.5), Decimal("0.5")):
            with pytest.raises(ValueError, match=rf"^{name}\b[\w ]* must be a real number"):
                call(*floats[:i], bad, *floats[i + 1:])


@pytest.mark.parametrize("call, floats, names", FLOAT_ARGUMENTS)
def test_float_arguments_reject_nan(call, floats, names):
    for i, name in enumerate(names):
        with pytest.raises(ValueError, match=rf"^{name}\b[\w ]* must be (?:>=? 0 and )?finite"):
            call(*floats[:i], math.nan, *floats[i + 1:])


@pytest.mark.parametrize("times", [[0.0, math.nan, 1.0], [math.nan], [0.0, 1.0, math.inf],
                                   [-math.inf, 0.0, 1.0], [True, True, True],
                                   np.ones(3, dtype=bool), ["0", "1", "2"]])
def test_times_sequences_hold_finite_numbers(times):
    # the sums take no plain sequence, and an explicit schedule refuses these
    spec = gp.EnvelopeSpec(decay_rate=1.0, y0=0.0, jump_bound=gp.HarmonicScaled(c=1.0))
    for call in (lambda: gp.condition_sum(1.0, times, len(times)),
                 lambda: gp.envelope_bound(spec, times, len(times)),
                 lambda: ExplicitSchedule(n0=1, times=times)):
        with pytest.raises(ValueError, match="times"):
            call()
