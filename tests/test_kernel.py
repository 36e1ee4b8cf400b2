"""The kernel formula psi = a + b/(1 + r^2): values, certified bounds, config.

A kernel is evaluated at squared distances, ``eval_squared(r * r)``; the
tests write the formula out again to check it.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from growpop import Kernel, constant_kernel, rational_kernel
from growpop.cli import ConfigError, load_config

RNG = np.random.default_rng(20260301)


class TestConstantKernel:
    def test_value_is_c_everywhere(self):
        k = constant_kernel(0.7)
        for r in [0.0, 1e-9, 1.0, 37.5, 1e8]:
            assert k.eval_squared(r * r) == 0.7

    def test_bounds(self):
        k = constant_kernel(2.5)
        assert (k.psi_star, k.psi_max) == (2.5, 2.5)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_coefficient(self, c):
        with pytest.raises(ValueError):
            constant_kernel(c)


class TestRationalKernel:
    def test_endpoint_values(self):
        k = rational_kernel(0.5, 1.5)
        assert k.eval_squared(0.0) == 2.0
        assert abs(k.eval_squared(1e12) - 0.5) < 1e-10

    def test_monotone_decreasing(self):
        k = rational_kernel(0.25, 2.0)
        r = np.linspace(0.0, 20.0, 400)
        vals = k.eval_squared(r * r)
        assert np.all(np.diff(vals) < 0.0)

    def test_bounds_bracket_values(self):
        k = rational_kernel(0.3, 0.9)
        lo, hi = k.psi_star, k.psi_max
        assert (lo, hi) == (0.3, 1.2)
        r = RNG.uniform(0.0, 100.0, size=1000)
        vals = k.eval_squared(r * r)
        assert np.all(vals > lo)
        assert np.all(vals <= hi)

    def test_zero_b_degenerates_to_constant_values(self):
        k = rational_kernel(0.8, 0.0)
        r = RNG.uniform(0.0, 10.0, size=50)
        np.testing.assert_array_equal(k.eval_squared(r * r), np.full(50, 0.8))

    def test_zero_b_is_the_constant_kernel(self):
        assert rational_kernel(0.8, 0.0) == constant_kernel(0.8)
        assert [f.name for f in dataclasses.fields(Kernel)] == ["a", "b"]

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-0.1, 1.0), (1.0, -0.5),
                                     (math.nan, 1.0), (1.0, math.inf)])
    def test_rejects_bad_coefficients(self, a, b):
        with pytest.raises(ValueError):
            rational_kernel(a, b)


class TestKernelChecksItself:
    # a kernel built directly, not through a factory, is checked too: an a
    # below zero would grow V without bound, a negative b would make the RK4
    # step cap negative, and a nan a would give a nan psi_star
    @pytest.mark.parametrize("a,b,field", [(-1.0, 0.0, "a"), (0.0, 1.0, "a"),
                                           (math.nan, 0.0, "a"), (math.inf, 0.0, "a"),
                                           (1.0, -2.0, "b"), (1.0, math.nan, "b"),
                                           (1.0, math.inf, "b"), ("1", 0.0, "a")])
    def test_rejects_bad_fields_naming_them(self, a, b, field):
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            Kernel(a, b)

    def test_stores_floats(self):
        k = Kernel(1, 0)
        assert (type(k.a), type(k.b)) == (float, float)
        assert k == constant_kernel(1.0)


class TestEvaluation:
    def test_scalar_in_float_out(self):
        k = rational_kernel(0.5, 0.5)
        out = k.eval_squared(1.0)
        assert isinstance(out, float)
        assert out == 0.75

    def test_array_shape_preserved(self):
        k = rational_kernel(0.5, 0.5)
        r = RNG.uniform(0.0, 3.0, size=(4, 7))
        out = k.eval_squared(r * r)
        assert out.shape == (4, 7)

    @pytest.mark.parametrize("maker", [lambda: constant_kernel(1.3),
                                       lambda: rational_kernel(0.4, 1.1)])
    def test_eval_squared_agrees_with_direct(self, maker):
        k = maker()
        r = RNG.uniform(0.0, 10.0, size=200)
        # the formula written out again, in the same order
        np.testing.assert_array_equal(k.eval_squared(r * r), k.a + k.b / (1.0 + r * r))

    @pytest.mark.parametrize("maker", [lambda: constant_kernel(1.3),
                                       lambda: rational_kernel(0.4, 1.1)])
    def test_eval_squared_into_a_buffer_gives_the_same_bits(self, maker):
        k = maker()
        r2 = RNG.uniform(0.0, 100.0, size=(7, 33))
        buf = np.full_like(r2, np.nan)
        out = k.eval_squared(r2, out=buf)
        assert out is buf
        assert buf.tobytes() == k.eval_squared(r2).tobytes()


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
        with pytest.raises(ConfigError, match=r"kernel\.c must be"):
            load_kernel(tmp_path, {"type": "constant", "c": -1.0})
