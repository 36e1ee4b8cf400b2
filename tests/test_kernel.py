"""Kernel families: values, certified bounds, Lipschitz constants, config."""

import json
import math

import numpy as np
import pytest

from growpop import constant_kernel, rational_kernel
from growpop.cli import ConfigError, load_config

RNG = np.random.default_rng(20260301)


class TestConstantKernel:
    def test_value_is_c_everywhere(self):
        k = constant_kernel(0.7)
        for r in [0.0, 1e-9, 1.0, 37.5, 1e8]:
            assert k(r) == 0.7

    def test_bounds_and_lipschitz(self):
        k = constant_kernel(2.5)
        assert (k.psi_star, k.psi_max) == (2.5, 2.5)
        assert k.lipschitz == 0.0

    @pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_coefficient(self, c):
        with pytest.raises(ValueError):
            constant_kernel(c)


class TestRationalKernel:
    def test_endpoint_values(self):
        k = rational_kernel(0.5, 1.5)
        assert k(0.0) == 2.0
        assert abs(k(1e6) - 0.5) < 1e-10

    def test_monotone_decreasing(self):
        k = rational_kernel(0.25, 2.0)
        r = np.linspace(0.0, 20.0, 400)
        vals = k(r)
        assert np.all(np.diff(vals) < 0.0)

    def test_bounds_bracket_values(self):
        k = rational_kernel(0.3, 0.9)
        lo, hi = k.psi_star, k.psi_max
        assert (lo, hi) == (0.3, 1.2)
        r = RNG.uniform(0.0, 100.0, size=1000)
        vals = k(r)
        assert np.all(vals > lo)
        assert np.all(vals <= hi)

    def test_lipschitz_constant_matches_steepest_slope(self):
        # |psi'(r)| = 2 b r / (1 + r^2)^2 peaks at r = 1/sqrt(3)
        b = 1.7
        k = rational_kernel(1.0, b)
        r = np.linspace(1e-4, 5.0, 200_001)
        slope = np.abs(np.diff(k(r)) / np.diff(r))
        assert slope.max() <= k.lipschitz * (1.0 + 1e-6)
        np.testing.assert_allclose(slope.max(), k.lipschitz, rtol=1e-6)
        assert k.lipschitz == b * (3.0 * math.sqrt(3.0) / 8.0)

    def test_zero_b_degenerates_to_constant_values(self):
        k = rational_kernel(0.8, 0.0)
        r = RNG.uniform(0.0, 10.0, size=50)
        np.testing.assert_array_equal(k(r), np.full(50, 0.8))

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-0.1, 1.0), (1.0, -0.5),
                                     (math.nan, 1.0), (1.0, math.inf)])
    def test_rejects_bad_coefficients(self, a, b):
        with pytest.raises(ValueError):
            rational_kernel(a, b)


class TestEvaluation:
    def test_scalar_in_float_out(self):
        k = rational_kernel(0.5, 0.5)
        out = k(1.0)
        assert isinstance(out, float)
        assert out == 0.75

    def test_array_shape_preserved(self):
        k = rational_kernel(0.5, 0.5)
        r = RNG.uniform(0.0, 3.0, size=(4, 7))
        out = k(r)
        assert out.shape == (4, 7)

    def test_negative_distance_rejected(self):
        k = constant_kernel(1.0)
        with pytest.raises(ValueError):
            k(-0.5)
        with pytest.raises(ValueError):
            k(np.array([0.5, -1e-12]))

    @pytest.mark.parametrize("maker", [lambda: constant_kernel(1.3),
                                       lambda: rational_kernel(0.4, 1.1)])
    def test_eval_squared_agrees_with_direct(self, maker):
        k = maker()
        r = RNG.uniform(0.0, 10.0, size=200)
        np.testing.assert_allclose(k.eval_squared(r * r), k(r),
                                   rtol=1e-15)


def load_kernel(tmp_path, spec):
    """The kernel that load_config builds from the block ``spec``."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "kernel": spec,
        "schedule": {"type": "power_exp", "alpha": 0.5},
        "source": {"type": "gaussian", "mean": 0.0, "sigma2": 1.0},
        "max_agents": 3,
    }))
    return load_config(str(path)).sim.kernel


class TestConfig:
    def test_constant_round_trip(self, tmp_path):
        k = load_kernel(tmp_path, {"type": "constant", "c": 2.0})
        assert k == constant_kernel(2.0)

    def test_rational_round_trip(self, tmp_path):
        k = load_kernel(tmp_path, {"type": "rational", "a": 0.5, "b": 1.5})
        assert k == rational_kernel(0.5, 1.5)

    def test_unknown_type_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match=r"kernel\.type"):
            load_kernel(tmp_path, {"type": "gaussian"})

    def test_missing_coefficient_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match=r"kernel\.c"):
            load_kernel(tmp_path, {"type": "constant"})

    def test_invalid_value_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match=r"kernel\.a must be"):
            load_kernel(tmp_path, {"type": "rational", "a": 0.0, "b": 1.0})
        with pytest.raises(ConfigError, match=r"kernel\.b must be"):
            load_kernel(tmp_path, {"type": "rational", "a": 1.0, "b": -1.0})
