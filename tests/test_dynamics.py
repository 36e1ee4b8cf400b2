"""Integrator and hybrid driver: force field, conservation, arrivals.

The force oracle, ``exact_force``, sums every pair's term in long double
straight from the differences x_j - x_i, with no pivot, Gram product or
tiles; both paths of the pass (the tiled pairwise one and the constant-kernel
shortcut) are held to it on random states, within stated rounding bounds.
"""

import dataclasses
import decimal
import math
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from growpop import (
    SimConfig,
    SimState,
    PowerExponentialSchedule,
    ExplicitSchedule,
    OpinionSource,
    constant_kernel,
    gaussian_source,
    geometric_record_grid,
    injection_time,
    integrate_interval,
    population_at,
    rational_kernel,
    rhs,
    run_simulation,
    uniform_record_grid,
)
from growpop import dynamics, kernels, observables
from growpop.kernels import _TILE_ROWS, Kernel, _force, _gram_operands, _pair_tiles
from growpop.observables import compute_moments, dissipation_of
from growpop.sources import _draw_incoming

RNG = np.random.default_rng(424242)

MEAN_DRIFT_TOL = 1e-12
EQUIVARIANCE_TOL = 1e-12

# populations that fill about a quarter or half of a tile, half a tile and
# three rows, both sides of a tile edge, one tile and three rows, and two tiles
# and three rows of the pair sums
TILE_EDGE_SIZES = (_TILE_ROWS // 4 - 1, _TILE_ROWS // 4, _TILE_ROWS // 4 + 1,
                   _TILE_ROWS // 2 - 1, _TILE_ROWS // 2, _TILE_ROWS // 2 + 1, _TILE_ROWS // 2 + 3,
                   _TILE_ROWS - 1, _TILE_ROWS, _TILE_ROWS + 1, _TILE_ROWS + 3, 2 * _TILE_ROWS + 3)
TILE_EDGE_SHAPES = [(n, d) for n in TILE_EDGE_SIZES for d in (1, 2, 3)]


def exact_force(x, kernel):
    """Velocities (N, d) and D of the opinions x in long double, from every
    pair's difference x_j - x_i and weight psi (the kernel's formula written
    out again): the reference the force pass is held to."""
    xl = np.asarray(x, dtype=np.longdouble)
    diff = xl[None, :, :] - xl[:, None, :]
    r2 = (diff * diff).sum(axis=2)
    w = kernel.a + kernel.b / (1 + r2)
    n = xl.shape[0]
    return (w[:, :, None] * diff).sum(axis=1) / n, -(w * r2).sum() / (n * n)


def state_of(x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return SimState(t=0.0, k=0, opinions=x, dim=x.shape[1])


class TestForceField:
    @pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (5, 2), (11, 3)] + TILE_EDGE_SHAPES)
    @pytest.mark.parametrize("maker", [lambda: constant_kernel(0.8),
                                       lambda: rational_kernel(0.5, 0.5)])
    def test_matches_brute_force(self, n, d, maker):
        # With u = eps / 2 and M = max |y_j| about the pivot y = x - x[0], row i
        # is ((W y)_i - (sum_j W_ij) y_i) / N. Each sum has N terms of at most
        # psi_max M, and in any order rounds within N u times the sum of their
        # sizes (Higham 3.1): N eps psi_max M after the division by N. The
        # pivot's rounding, of u M per point, adds eps psi_max M; the product,
        # difference and division 3 eps psi_max M; and each weight's three
        # roundings, times |y_j - y_i| <= 2 M, 4 eps psi_max M. A squared
        # distance off by (d + 3) eps 2 M^2 (see the next test) moves a
        # rational weight by b / (1 + r^2)^2 times that, and r / (1 + r^2)^2 <=
        # 1/3, which adds (d + 3) M eps psi_max M. So k = N + 8 + (d + 3) M.
        kernel = maker()
        x = RNG.normal(0.0, 2.0, size=(n, d))
        want, _ = exact_force(x, kernel)
        spread = np.linalg.norm(x - x[0], axis=1).max()
        k = n + 8 + (d + 3) * spread
        bound = k * np.finfo(float).eps * kernel.psi_max * spread
        err = np.abs(rhs(state_of(x), kernel) - want)
        assert (err <= bound).all(), (float(err.max()), bound)

    def test_single_agent_is_stationary(self):
        x = np.array([[1.5, -2.0]])
        for kernel in (constant_kernel(1.0), rational_kernel(0.5, 0.5)):
            assert np.all(rhs(state_of(x), kernel) == 0.0)

    @pytest.mark.parametrize("maker", [lambda: constant_kernel(1.0),
                                       lambda: rational_kernel(0.3, 1.0)])
    def test_consensus_is_exact_fixed_point(self, maker):
        # identical opinions: every pairwise displacement is exactly zero
        x = np.tile(np.array([0.3, -1.7]), (9, 1))
        assert np.all(rhs(state_of(x), maker()) == 0.0)

    def test_pairwise_terms_exactly_antisymmetric(self):
        # each weight is computed once, in the upper tile of its pair, and used
        # both ways. A tile's weights are eval_squared, in place, of one Gram
        # product, bit for bit; its own block, which holds both ways, is
        # symmetric, and each squared distance is within (d + 3) eps (|y_i|^2 +
        # |y_j|^2) of the exact one of the pivoted points y. The tiles are
        # views of a reused buffer, so each is copied as it comes. A tile
        # holds its rows of the pair matrix as columns, (N - lo, nr).
        kernel = rational_kernel(0.5, 0.5)
        n = 2 * _TILE_ROWS + 3
        eps = np.finfo(float).eps
        for d in (1, 2, 3):
            x = RNG.normal(0.0, 1.0, size=(n, d))
            left, right = _gram_operands(x.T - x.T[:, :1])
            wts, d2s = np.full((n, n), np.nan), np.full((n, n), np.nan)
            for rows, w in _pair_tiles(left, right, kernel):
                d2 = left[rows.start:] @ right[:, rows]
                assert np.array_equal(w, kernel.eval_squared(d2)), d
                nr = rows.stop - rows.start
                for tile in (w, d2):
                    assert np.array_equal(tile[:nr], tile[:nr].T), d
                wts[rows, rows.start:], d2s[rows, rows.start:] = w.T, d2.T
                wts[rows.start:, rows], d2s[rows.start:, rows] = w, d2
            y = left[:, 2:].astype(np.longdouble)
            exact = ((y[None, :, :] - y[:, None, :]) ** 2).sum(axis=2)
            norms = (y * y).sum(axis=1)
            err = np.abs(d2s.astype(np.longdouble) - exact)
            assert (err <= (d + 3) * eps * (norms[:, None] + norms[None, :])).all(), d
            terms = wts[:, :, None] * (x[None, :, :] - x[:, None, :])
            assert np.array_equal(terms, -np.transpose(terms, (1, 0, 2))), d
            consensus = np.tile(x[1], (n, 1))
            for _, w in _pair_tiles(*_gram_operands(consensus.T - consensus.T[:, :1]), kernel):
                assert (w == kernel.psi_max).all(), d

    def test_force_pass_evaluates_each_pair_once(self, monkeypatch):
        # a tile's rows meet only the columns from its own first row on, so a
        # pass weighs sum over tiles of rows * (N - lo) pairs, about N^2 / 2,
        # in one call per tile
        n = 2 * _TILE_ROWS + 3
        sizes = []
        evaluate = Kernel.eval_squared

        def counted(self, r2, out=None):
            sizes.append(np.size(r2))
            return evaluate(self, r2, out)

        monkeypatch.setattr(Kernel, "eval_squared", counted)
        _force(RNG.normal(size=(n, 2)).T, rational_kernel(0.5, 0.5))
        want = sum(min(_TILE_ROWS, n - lo) * (n - lo) for lo in range(0, n, _TILE_ROWS))
        assert len(sizes) == len(range(0, n, _TILE_ROWS)) and sum(sizes) == want
        assert want < 0.5 * n * (n + _TILE_ROWS)

    @pytest.mark.parametrize("n,d", TILE_EDGE_SHAPES)
    @pytest.mark.parametrize("maker", [lambda: constant_kernel(0.8),
                                       lambda: rational_kernel(0.5, 0.5)])
    def test_force_pass_dissipation_matches_brute_force(self, n, d, maker):
        # the D the RK4 stages integrate and the rows record, and the D of the
        # first `old` agents that a pre_jump row records, come from the force's
        # own pass
        kernel = maker()
        x = RNG.normal(0.0, 2.0, size=(n, d))
        want = exact_force(x, kernel)[1]
        for old in sorted({1, n // 2, n - 1, _TILE_ROWS} & set(range(1, n))):
            _, d_all, d_old = _force(x.T, kernel, old)
            assert abs(d_all - want) <= 1e-13 * abs(want)
            d_old_want = exact_force(x[:old], kernel)[1]
            assert abs(d_old - d_old_want) <= 1e-13 * abs(d_old_want)

    @pytest.mark.parametrize("n,d", TILE_EDGE_SHAPES)
    def test_force_pass_dissipation_is_dissipation_of_bit_for_bit(self, n, d):
        # the D of the first `old` agents, summed over their own block of each
        # tile, is the sum their own pass makes, in its order
        kernel = rational_kernel(0.5, 0.5)
        x = RNG.normal(0.0, 2.0, size=(n, d))
        for old in sorted({1, n // 2, n - 1, _TILE_ROWS} & set(range(1, n))):
            _, d_all, d_old = _force(x.T, kernel, old)
            assert d_all == dissipation_of(x, kernel)
            assert d_old == dissipation_of(x[:old], kernel)

    @pytest.mark.parametrize("spread", [1.0, 1e-3])
    @pytest.mark.parametrize("offset", [0.0, 1.0, 1e3])
    def test_force_pass_precise_with_a_far_pivot(self, offset, spread):
        # the pass pivots about x[0], here `offset` away from a cluster of
        # `spread`, and takes the squared distances from a Gram product: its
        # velocities stay within 1e-11 of max |v|, and its D within 1e-14
        # relative, of a long-double brute force
        kernel = rational_kernel(0.5, 0.5)
        n = 2 * _TILE_ROWS + 3
        rng = np.random.default_rng(17)
        x = rng.normal(0.0, spread, size=(n, 2))
        x[0] = (offset, 0.0)
        v_want, d_want = exact_force(x, kernel)
        for old in (None, n // 2, _TILE_ROWS + 1):
            v, d_all, d_old = _force(x.T, kernel, old)
            assert np.abs(v.T - v_want).max() <= 1e-11 * np.abs(v_want).max()
            assert abs(d_all - d_want) <= 1e-14 * abs(d_want)
            if old is not None:
                d_old_want = exact_force(x[:old], kernel)[1]
                assert abs(d_old - d_old_want) <= 1e-14 * abs(d_old_want)

    @pytest.mark.parametrize("spread", [1e-6, 1e-9])
    def test_force_pass_dissipation_precise_with_a_far_newcomer(self, spread):
        # a tight cluster and, in the last row, a newcomer far from it: D is
        # the newcomer's, and D_pre, of the cluster alone, is about spread^2,
        # so D_pre taken as D less the newcomer's terms would cancel. Both stay
        # within 1e-14 relative of a long-double brute force, with `old`
        # cutting the last tile, and the velocities do not depend on `old`
        kernel = rational_kernel(0.5, 0.5)
        n = 2 * _TILE_ROWS + 3
        x = np.random.default_rng(29).normal(0.0, spread, size=(n, 2))
        x[-1] = (30.0, -30.0)
        v, d_all, d_pre = _force(x.T, kernel, n - 1)
        assert np.array_equal(v, _force(x.T, kernel)[0])
        for got, want in ((d_all, exact_force(x, kernel)[1]),
                          (d_pre, exact_force(x[:-1], kernel)[1])):
            assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("n,d", TILE_EDGE_SHAPES)
    @pytest.mark.parametrize("maker", [lambda: constant_kernel(0.8),
                                       lambda: rational_kernel(0.5, 0.5)])
    def test_stride_independent_on_a_prefix_view(self, n, d, maker):
        # the engine keeps its opinions in the (d, n) prefix of a (d, N_final)
        # buffer, and the public entry points pass contiguous copies: every
        # sum over agents must give the same bits on both, so that a run's
        # rows equal compute_moments and dissipation_of of its opinions.
        # Buffers of odd and even widths shift every row but the first
        kernel = maker()
        m = RNG.normal(0.0, 1.0, size=d)
        for extra in (1, 2, 7):
            buf = np.full((d, n + extra), np.nan)
            buf[:, :n] = RNG.normal(0.5, 2.0, size=(d, n))
            view, copy = buf[:, :n], np.ascontiguousarray(buf[:, :n])
            got, want = observables._moments(view, m), observables._moments(copy, m)
            assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:], extra
            for old in [None] + sorted({1, n // 2, n - 1, _TILE_ROWS} & set(range(1, n))):
                got, want = _force(view, kernel, old), _force(copy, kernel, old)
                assert got[0].tobytes() == want[0].tobytes(), (extra, old)
                assert got[1:] == want[1:], (extra, old)

    @pytest.mark.parametrize("n,d", TILE_EDGE_SHAPES)
    def test_velocity_sum_near_zero(self, n, d):
        kernel = rational_kernel(0.5, 0.5)
        x = RNG.normal(0.0, 3.0, size=(n, d))
        total = rhs(state_of(x), kernel).sum(axis=0)
        assert np.all(np.abs(total) < 1e-13 * np.abs(x).max() * x.shape[0])

    def test_pairwise_force_memory_is_tiled(self):
        # one (N, N, d) displacement array alone would take 64 MB here
        state = state_of(np.random.default_rng(2000).normal(size=(2000, 2)))
        kernel = rational_kernel(0.5, 0.5)
        tracemalloc.start()
        try:
            rhs(state, kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("maker", [lambda: constant_kernel(1.0),
                                       lambda: rational_kernel(0.5, 0.5)])
    def test_permutation_equivariance(self, maker):
        kernel = maker()
        x = RNG.normal(0.0, 1.0, size=(12, 2))
        perm = RNG.permutation(12)
        np.testing.assert_allclose(rhs(state_of(x[perm]), kernel),
                                   rhs(state_of(x), kernel)[perm],
                                   rtol=0, atol=EQUIVARIANCE_TOL)

    @pytest.mark.parametrize("maker", [lambda: constant_kernel(1.0),
                                       lambda: rational_kernel(0.5, 0.5)])
    def test_translation_equivariance(self, maker):
        kernel = maker()
        x = RNG.normal(0.0, 1.0, size=(12, 2))
        shift = np.array([10.0, -3.0])
        np.testing.assert_allclose(rhs(state_of(x + shift), kernel),
                                   rhs(state_of(x), kernel),
                                   rtol=0, atol=EQUIVARIANCE_TOL)


class TestIntegrator:
    def test_lands_exactly_on_endpoint(self):
        kernel = rational_kernel(0.5, 0.5)
        state = state_of(RNG.normal(size=(5, 1)))
        out = integrate_interval(state, kernel, 0.7330000000000001, step_max=0.1)
        assert out.t == 0.7330000000000001

    @pytest.mark.parametrize("n,d", TILE_EDGE_SHAPES)
    def test_mean_conserved_along_flow(self, n, d):
        x = RNG.normal(0.0, 2.0, size=(n, d))
        m1_0 = x.mean(axis=0)
        for kernel in (constant_kernel(1.0), rational_kernel(0.5, 0.5)):
            out = integrate_interval(state_of(x), kernel, 10.0, step_max=0.05)
            drift = np.abs(out.opinions.mean(axis=0) - m1_0).max()
            assert drift < MEAN_DRIFT_TOL

    def test_constant_kernel_variance_decays_exactly(self):
        # V(t) = V(0) exp(-2 c t) in closed form
        c = 1.3
        x = np.linspace(-1.0, 2.0, 8)[:, None]
        v0 = x.var()
        out = integrate_interval(state_of(x), constant_kernel(c), 1.0, step_max=1e-3)
        np.testing.assert_allclose(out.opinions.var(), v0 * math.exp(-2 * c), rtol=1e-9)

    def test_fourth_order_convergence(self):
        kernel = rational_kernel(0.4, 1.2)
        x = RNG.normal(0.0, 1.0, size=(4, 1))
        ref = integrate_interval(state_of(x), kernel, 1.0, step_max=1e-4).opinions
        err = []
        for h in (0.1, 0.05):
            sol = integrate_interval(state_of(x), kernel, 1.0, step_max=h).opinions
            err.append(np.abs(sol - ref).max())
        ratio = err[0] / err[1]
        assert 12.0 < ratio < 20.0

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.4, 1.2)])
    def test_energy_balance_is_fourth_order(self, a, b):
        # RK4's m2 and the Simpson integral of its stages' D agree to O(h^4):
        # m2 misses m2(0) + d_integral + the m2 jumps by about 16 times less
        # each time the step halves, over a run that crosses a tile edge
        errs = []
        for h in (0.04, 0.02, 0.01):
            config = SimConfig(
                dim=2,
                kernel=rational_kernel(a, b),
                schedule=PowerExponentialSchedule(alpha=0.5, n0=2),
                source=gaussian_source((0.25, -0.5), 1.0),
                initial_opinions=np.array([[0.5, 0.0], [-0.5, 0.3]]),
                step_max=h,
                max_agents=_TILE_ROWS + 3,
            )
            series = run_simulation(config, seed=7)
            is_post = np.array(series.event) == "post_jump"
            jumps = np.where(is_post, np.diff(series.m2, prepend=series.m2[0]), 0.0)
            expected = series.m2[0] + series.d_integral + np.cumsum(jumps)
            errs.append(float(np.max(np.abs(series.m2 - expected) / np.abs(expected))))
        for coarse, fine in zip(errs, errs[1:]):
            assert 14.0 <= coarse / fine <= 18.0, errs

    def test_constant_kernel_flow_is_exact(self):
        # x(t) = m1 + (x - m1) e^{-ct}; RK4 at h = 1e-2 is off by about 1e-10
        x = RNG.normal(0.0, 1.0, size=(2000, 1))
        m1 = x.mean(axis=0)
        out = integrate_interval(state_of(x), constant_kernel(1.0), 1.0, step_max=1e-2)
        exact = m1 + (x - m1) * math.exp(-1.0)
        assert np.abs(out.opinions - exact).max() <= 1e-14

    def test_constant_kernel_ignores_step_max(self):
        x = RNG.normal(0.0, 1.0, size=(30, 2))
        kernel = constant_kernel(1.7)
        fine = integrate_interval(state_of(x), kernel, 2.5, step_max=1e-3)
        coarse = integrate_interval(state_of(x), kernel, 2.5, step_max=3.0)
        np.testing.assert_array_equal(fine.opinions, coarse.opinions)

    def test_constant_kernel_consensus_is_exact_fixed_point(self):
        x = np.full((7, 2), [0.3, -1.1])
        out = integrate_interval(state_of(x), constant_kernel(2.0), 4.0, step_max=0.5)
        np.testing.assert_array_equal(out.opinions, x)

    def test_rational_step_capped_at_stability_limit(self):
        # h = 4 is past RK4's stability limit 2.785 / (2 psi_max) = 0.87;
        # uncapped, the run stalls on a spurious fixed point at V ~ 0.03
        x = RNG.normal(0.0, 1.0, size=(50, 1))
        out = integrate_interval(state_of(x), rational_kernel(0.4, 1.2), 30.0, step_max=4.0)
        assert out.opinions.var() < 1e-20

    def test_tiny_interval_single_step(self):
        kernel = constant_kernel(1.0)
        state = state_of(RNG.normal(size=(4, 1)))
        out = integrate_interval(state, kernel, 5e-15, step_max=0.1)
        assert out.t == 5e-15
        assert np.all(np.isfinite(out.opinions))

    def test_zero_length_interval_is_identity(self):
        kernel = constant_kernel(1.0)
        state = state_of(RNG.normal(size=(4, 1)))
        out = integrate_interval(state, kernel, 0.0, step_max=0.1)
        np.testing.assert_array_equal(out.opinions, state.opinions)

    def test_backwards_interval_rejected(self):
        state = state_of(RNG.normal(size=(3, 1)))
        state.t = 1.0
        with pytest.raises(ValueError, match=r"t_end = 0\.5 precedes state\.t = 1\.0"):
            integrate_interval(state, constant_kernel(1.0), 0.5)

    @pytest.mark.parametrize("maker", [lambda: constant_kernel(1.0),
                                       lambda: rational_kernel(0.5, 0.5)])
    def test_fortran_ordered_opinions_not_changed(self, maker):
        # their transpose is C-ordered already, and must still be copied
        x = np.asfortranarray(RNG.normal(size=(6, 2)))
        state = state_of(x)
        before = x.copy()
        out = integrate_interval(state, maker(), 0.5, step_max=0.1)
        np.testing.assert_array_equal(state.opinions, before)
        assert not np.array_equal(out.opinions, before)


class TestOpinionShapes:
    """The four entry points that take opinions check them alike."""

    ENTRY_POINTS = {
        "rhs": rhs,
        "integrate_interval": lambda state, kernel: integrate_interval(state, kernel, 0.5),
        "compute_moments": lambda state, kernel: compute_moments(state.opinions, kernel,
                                                                 np.zeros(2), state.t),
        "dissipation_of": lambda state, kernel: dissipation_of(state.opinions, kernel),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("opinions", [np.zeros(3), np.zeros((0, 2)), np.zeros((2, 2, 1)),
                                          1.0], ids=["1-D", "empty", "3-D", "scalar"])
    @pytest.mark.parametrize("maker", [lambda: constant_kernel(1.0),
                                       lambda: rational_kernel(0.5, 0.5)])
    def test_bad_shape_rejected(self, entry, opinions, maker):
        state = SimState(t=0.0, k=0, opinions=opinions, dim=2)
        want = f"opinions must be a nonempty (N, d) array, got shape {np.shape(opinions)}"
        with pytest.raises(ValueError) as err:
            self.ENTRY_POINTS[entry](state, maker())
        assert str(err.value) == want

    @pytest.mark.parametrize("dim", [1, 3, 5])
    def test_state_dim_must_be_the_column_count(self, dim):
        with pytest.raises(ValueError, match=r"^dim = \d does not match opinions of shape "
                                             r"\(3, 2\)$"):
            SimState(t=0.0, k=0, opinions=np.zeros((3, 2)), dim=dim)
        assert SimState(t=0.0, k=0, opinions=np.zeros((3, dim)), dim=dim).dim == dim


def small_config(**overrides):
    base = dict(
        dim=1,
        kernel=constant_kernel(1.0),
        schedule=PowerExponentialSchedule(alpha=0.5, n0=3),
        source=gaussian_source(0.0, 1.0),
        initial_opinions=np.array([[-1.0], [0.5], [1.5]]),
        step_max=0.05,
        max_agents=10,
        record_grid=(),
    )
    base.update(overrides)
    return SimConfig(**base)


class TestRunSimulation:
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed!r}$"):
            run_simulation(small_config(), seed)

    def test_numpy_integer_seed_is_its_int(self):
        a, b = run_simulation(small_config(), np.uint64(7)), run_simulation(small_config(), 7)
        assert type(a.seed) is int and a.seed == 7
        np.testing.assert_array_equal(a.w, b.w)

    def test_row_stream_structure(self):
        config = small_config(record_grid=(0.3, 0.9))
        series = run_simulation(config, seed=0)
        assert series.rows[0].event == "record" and series.rows[0].record.t == 0.0
        times = [row.record.t for row in series.rows]
        assert times == sorted(times)
        pre = [r for r in series.rows if r.event == "pre_jump"]
        post = [r for r in series.rows if r.event == "post_jump"]
        assert len(pre) == len(post) == len(series.injection_pairs) == 7
        for p, q in zip(pre, post):
            assert q.record.n == p.record.n + 1

    def test_population_counts_follow_schedule(self):
        series = run_simulation(small_config(), seed=1)
        ks = [row.k for row in series.rows if row.event == "post_jump"]
        assert ks == list(range(1, 8))
        ns = [row.record.n for row in series.rows if row.event == "post_jump"]
        assert ns == [3 + k for k in range(1, 8)]

    def test_bitwise_deterministic(self):
        config = small_config(record_grid=(0.5, 1.0))
        a = run_simulation(config, seed=7)
        b = run_simulation(config, seed=7)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.event == rb.event and ra.k == rb.k
            assert ra.record.t == rb.record.t
            assert np.array_equal(ra.record.m1, rb.record.m1)
            assert ra.record.m2 == rb.record.m2
            assert ra.record.v == rb.record.v
            assert ra.record.w == rb.record.w
            assert ra.record.dissipation == rb.record.dissipation

    def test_seed_changes_arrivals(self):
        a = run_simulation(small_config(), seed=7)
        b = run_simulation(small_config(), seed=8)
        assert not np.array_equal(a.injection_pairs[0].x_new,
                                  b.injection_pairs[0].x_new)

    def test_grid_row_at_each_grid_time(self):
        grid = (0.25, 0.6, 1.1)
        series = run_simulation(small_config(record_grid=grid), seed=2)
        rec_times = series.t[np.array(series.event) == "record"]
        assert rec_times.tolist() == [0.0, 0.25, 0.6, 1.1]

    def test_grid_time_on_arrival_collapses_to_jump_pair(self):
        config = small_config(
            schedule=ExplicitSchedule(n0=3, times=(0.5,)),
            max_agents=None,
            horizon=1.0,
            record_grid=(0.25, 0.5, 0.75),
        )
        series = run_simulation(config, seed=3)
        events = [(row.event, row.record.t) for row in series.rows]
        assert events == [("record", 0.0), ("record", 0.25), ("pre_jump", 0.5),
                          ("post_jump", 0.5), ("record", 0.75)]

    def test_horizon_only_run_has_no_spurious_arrivals(self):
        config = small_config(
            schedule=ExplicitSchedule(n0=3, times=(5.0,)),
            max_agents=None,
            horizon=1.0,
            record_grid=(1.0,),
        )
        series = run_simulation(config, seed=4)
        assert series.injection_pairs == []
        assert series.t[-1] == 1.0

    def test_zero_variance_consensus_is_absorbing(self):
        # start on consensus at the target mean; every arrival lands exactly
        # there too, so V and W stay exactly 0.0 throughout
        config = small_config(
            source=gaussian_source(0.25, 0.0),
            initial_opinions=np.full((3, 1), 0.25),
            max_agents=12,
        )
        series = run_simulation(config, seed=5)
        assert len(series.injection_pairs) == 9
        for row in series.rows:
            assert row.record.v == 0.0
            assert row.record.w == 0.0
            assert float(row.record.m1[0]) == 0.25

    def test_mean_matches_closed_form_after_arrivals(self):
        config = small_config(max_agents=8)
        series = run_simulation(config, seed=6)
        xs = np.array([p.x_new for p in series.injection_pairs])
        expected = np.vstack([config.initial_opinions, xs]).mean(axis=0)
        np.testing.assert_allclose(series.m1[-1], expected,
                                   rtol=0, atol=1e-13)

    def test_m2_nonincreasing_between_arrivals(self):
        config = small_config(
            kernel=rational_kernel(0.5, 0.5),
            schedule=ExplicitSchedule(n0=3, times=(5.0,)),
            max_agents=None,
            horizon=2.0,
            record_grid=uniform_record_grid(2.0, 0.1),
        )
        series = run_simulation(config, seed=9)
        m2 = series.m2[np.array(series.event) == "record"].tolist()
        assert all(b <= a + 1e-15 for a, b in zip(m2, m2[1:]))

    def test_dissipation_integral_reconstructs_m2(self):
        # d(m2)/dt = D between arrivals, plus the recorded jump at each one
        assert_m2_reconstructed(rational_kernel(0.5, 0.8), rtol=1e-8)

    def test_dissipation_integral_reconstructs_m2_constant_kernel(self):
        # the constant kernel's D integral is closed form, so only roundoff is left
        assert_m2_reconstructed(constant_kernel(1.3), rtol=1e-12)

    def test_integrates_up_to_the_last_row_only(self, monkeypatch):
        # one span into each row after the first, and none past the last row
        # to the horizon
        spans = []
        advance = dynamics._advance
        monkeypatch.setattr(dynamics, "_advance",
                            lambda *args: spans.append(args[2]) or advance(*args))
        config = small_config(kernel=rational_kernel(0.5, 0.5),
                              schedule=ExplicitSchedule(n0=3, times=(50.0,)),
                              max_agents=None, horizon=10.0,
                              record_grid=(0.25, 0.5, 0.6, 0.75))
        series = run_simulation(config, seed=13)
        assert len(series.rows) == 5 and len(spans) == 4
        assert spans[0] == 0.25 and sum(spans) == 0.75

    def test_horizon_only_arrivals_are_the_pinned_times(self):
        schedule = PowerExponentialSchedule(alpha=1.5, n0=3)
        config = small_config(schedule=schedule, max_agents=None, horizon=2.5)
        series = run_simulation(config, seed=14)
        arrivals = population_at(schedule, 2.5) - 3
        assert arrivals > 40
        post = series.t[np.array(series.event) == "post_jump"]
        assert post.tolist() == [injection_time(schedule, j) for j in range(1, arrivals + 1)]
        assert injection_time(schedule, arrivals + 1) > 2.5

    @pytest.mark.parametrize("case", ["regime-0.5", "regime-1.5", "grid-on-arrivals",
                                      "explicit-horizon", "no-arrivals"])
    def test_timeline_is_its_loop_reference(self, case):
        # the columns of the timeline, byte for byte, against the row-by-row
        # merge of sorted grid times and arrivals, the pinned t_j taken one at
        # a time from injection_time
        pinned = PowerExponentialSchedule(alpha=1.0, n0=3)
        near = [injection_time(pinned, j) for j in range(1, 20)]
        explicit = ExplicitSchedule(n0=2, times=(1.0, 400.0, 401.0))
        config = {
            "regime-0.5": lambda: regime_config(0.5),
            "regime-1.5": lambda: regime_config(1.5),
            # grid times on, within 1e-12 of and 1e-9 off arrivals, repeated,
            # at 0 and past t_end
            "grid-on-arrivals": lambda: small_config(
                schedule=pinned, max_agents=None, horizon=3.0,
                record_grid=(*near[:6], *near[:3], *(t + 1e-13 for t in near[6:10]),
                             *(t + 1e-9 for t in near[10:14]), 0.0, 0.1, 0.1, 3.0, 5.0,
                             *np.linspace(0.0, 3.0, 41))),
            "explicit-horizon": lambda: small_config(
                schedule=explicit, initial_opinions=np.zeros((2, 1)), max_agents=None,
                horizon=450.0, record_grid=uniform_record_grid(450.0, 7.0)),
            "no-arrivals": lambda: small_config(
                schedule=explicit, initial_opinions=np.zeros((2, 1)), max_agents=None,
                horizon=0.5, record_grid=(0.25, 0.5)),
        }[case]()
        tl = dynamics._timeline(config)
        t_end = dynamics._end_time(config.schedule, config.horizon, config.max_agents)
        count = population_at(config.schedule, t_end) - config.schedule.n0
        if config.max_agents is not None:
            count = min(count, config.max_agents - config.schedule.n0)
        arrivals = [injection_time(config.schedule, j) for j in range(1, count + 1)]
        ref = timeline_reference(arrivals, config.record_grid, t_end, config.schedule.n0)
        assert tl.event == ref["event"]
        for name in ("t", "k", "n"):
            col = getattr(tl, name)
            assert col.dtype == ref[name].dtype and col.tobytes() == ref[name].tobytes(), name
        assert tl.arrivals.tobytes() == np.array(arrivals, dtype=float).tobytes()

    def test_arrivals_beyond_memory_rejected_at_once(self):
        # alpha 1, horizon 44: about 1.3e19 arrivals, more than any address space
        config = small_config(schedule=PowerExponentialSchedule(alpha=1.0, n0=3),
                              max_agents=None, horizon=44.0)
        with pytest.raises(ValueError, match=r"arrivals up to t_end = 44\.0 do not fit in memory: "
                                             r"population at t=44\.0 is about 1\.29e\+19 "
                                             r"arrivals"):
            run_simulation(config, seed=0)

    def test_timeline_beyond_memory_names_its_size(self, monkeypatch):
        # K fits the t_j array but not the rows built from it
        def no_memory(*args):
            raise MemoryError()

        monkeypatch.setattr(dynamics, "_timeline_rows", no_memory)
        config = small_config(schedule=PowerExponentialSchedule(alpha=1.0, n0=3),
                              max_agents=None, horizon=3.0)
        arrivals = population_at(config.schedule, 3.0) - 3
        with pytest.raises(ValueError, match=rf"the rows of {arrivals} arrivals up to "
                                             r"t_end = 3\.0 do not fit in memory$"):
            run_simulation(config, seed=0)

    def test_constant_kernel_run_ignores_step_max(self):
        # c h = 3 is past RK4's stability limit; the exact flow does not care
        config = dict(kernel=constant_kernel(1.0), max_agents=40,
                      record_grid=geometric_record_grid(0.5, 30.0, 16))
        fine = run_simulation(small_config(step_max=0.01, **config), seed=12)
        coarse = run_simulation(small_config(step_max=3.0, **config), seed=12)
        v_fine, v_coarse = fine.v[-1], coarse.v[-1]
        assert abs(v_coarse - v_fine) <= 1e-12 * v_fine


def assert_m2_reconstructed(kernel, rtol):
    config = small_config(
        kernel=kernel,
        schedule=ExplicitSchedule(n0=3, times=(0.4, 0.9)),
        max_agents=5,
        horizon=1.5,
        step_max=1e-2,
        record_grid=(0.2, 0.7, 1.2, 1.5),
    )
    series = run_simulation(config, seed=11)
    q = dict()
    for t, integral, row in zip(series.t[1:], series.d_integral[1:], series.rows[1:]):
        if row.event == "record":
            q[t] = integral
    m2_0 = series.rows[0].record.m2
    jumps = [(p.pre.t, p.post.m2 - p.pre.m2) for p in series.injection_pairs]
    for t, m2, event in zip(series.t[1:], series.m2[1:], series.event[1:]):
        if event != "record":
            continue
        expected = m2_0 + q[t] + sum(dj for tj, dj in jumps if tj <= t)
        np.testing.assert_allclose(m2, expected, rtol=rtol)


def with_arrival(state, x_new):
    """``state`` with one newcomer appended as its last row."""
    return SimState(t=state.t, k=state.k + 1, opinions=np.vstack([state.opinions, x_new]),
                    dim=state.dim)


def particle_reference(config, series):
    """The columns m1, m2, v, w and dissipation at every row of ``series``,
    replayed on the opinions themselves through the public integrate_interval
    and compute_moments, with the arrivals drawn one at a time."""
    rng = np.random.default_rng(series.seed)
    state = state_of(config.initial_opinions)
    recs = [compute_moments(state.opinions, config.kernel, config.source.mean_vector, state.t)]
    for i in range(1, len(series.event)):
        t = float(series.t[i])
        if series.event[i] == "post_jump":
            x_new = _draw_incoming(config.source, rng, 1)[0]
            assert np.array_equal(x_new, series.x_new[series.k[i] - 1])
            state = with_arrival(state, x_new)
        else:
            state = integrate_interval(state, config.kernel, t, step_max=config.step_max)
        recs.append(compute_moments(state.opinions, config.kernel, config.source.mean_vector,
                                    state.t))
    return {name: np.array([getattr(r, name) for r in recs])
            for name in ("m1", "m2", "v", "w", "dissipation")}


def recursion_reference(config, series):
    """m1 and V at every row of a constant-kernel ``series`` by Welford's
    recursion in plain floats, row by row: a span multiplies nV by e^{-2c tau},
    an arrival x to n agents adds n |x - m1|^2 / (n + 1) and moves m1 by
    (x - m1) / (n + 1)."""
    c, x0 = config.kernel.a, config.initial_opinions
    dev = x0 - x0[0]
    offsets = dev - dev.sum(axis=0) / len(x0)
    m1 = x0[0] + dev.sum(axis=0) / len(x0)
    nv, t, n = float((offsets * offsets).sum()), 0.0, len(x0)
    m1s, vs = [], []
    for i, event in enumerate(series.event):
        if event == "post_jump":
            delta = series.x_new[series.k[i] - 1] - m1
            m1 = m1 + delta / (n + 1)
            nv += n / (n + 1) * float(delta @ delta)
            n += 1
        elif series.t[i] > t:
            nv *= math.exp(-2.0 * c * (series.t[i] - t))
            t = series.t[i]
        m1s.append(m1)
        vs.append(nv / n)
    return {"m1": np.array(m1s), "v": np.array(vs)}


def exact_v(config, series):
    """V at every row of a constant-kernel ``series`` in 40-digit decimal
    arithmetic, rounded once to float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        c = Decimal(config.kernel.a)
        points = [[Decimal(x) for x in row] for row in config.initial_opinions]
        n = len(points)
        m1 = [sum(col) / n for col in zip(*points)]
        nv = sum((x - m) ** 2 for row in points for x, m in zip(row, m1))
        t, vs = Decimal(0), []
        for i, event in enumerate(series.event):
            if event == "post_jump":
                delta = [Decimal(x) - m for x, m in zip(series.x_new[series.k[i] - 1], m1)]
                nv += n * sum(q * q for q in delta) / (n + 1)
                m1 = [m + q / (n + 1) for m, q in zip(m1, delta)]
                n += 1
            else:
                t_i = Decimal(float(series.t[i]))
                nv *= (-2 * c * (t_i - t)).exp()
                t = t_i
            vs.append(float(nv / n))
    return np.array(vs)


def timeline_reference(arrivals, record_grid, t_end, n0):
    """The columns event, t, k and n of a run's rows, merged row by row: the
    t = 0 record, each grid time in (0, t_end] farther than 1e-12 max(1, g)
    from every arrival, and a pre/post pair per arrival, in time order."""
    grid = [g for g in sorted(set(record_grid)) if 0.0 < g <= t_end
            and all(abs(g - t_j) > 1e-12 * max(1.0, g) for t_j in arrivals)]
    event, t, k, n = ["record"], [0.0], [0], [n0]
    for t_ev, j in sorted([(g, 0) for g in grid] + [(t_j, j + 1) for j, t_j in enumerate(arrivals)]):
        if j == 0:
            event.append("record")
            t.append(t_ev)
            k.append(k[-1])
            n.append(n[-1])
        else:
            event += ["pre_jump", "post_jump"]
            t += [t_ev, t_ev]
            k += [j, j]
            n += [n0 + j - 1, n0 + j]
    return {"event": tuple(event), "t": np.array(t), "k": np.array(k, dtype=np.int64),
            "n": np.array(n, dtype=np.int64)}


def regime_config(alpha):
    # the acceptance regime config, cut to N = 300
    schedule = PowerExponentialSchedule(alpha=alpha, n0=10)
    t_end = injection_time(schedule, 290)
    return SimConfig(dim=1, kernel=constant_kernel(1.0), schedule=schedule,
                     source=gaussian_source(0.0, 1.0), initial_opinions=np.zeros((10, 1)),
                     step_max=1e-2, max_agents=300,
                     record_grid=geometric_record_grid(0.5, t_end, 64))


def d3_config(kind):
    schedule = PowerExponentialSchedule(alpha=0.5, n0=4)
    return SimConfig(dim=3, kernel=constant_kernel(0.7), schedule=schedule,
                     source=OpinionSource(kind, (0.3, -0.2, 1.0), 2.0),
                     initial_opinions=np.arange(12.0).reshape(4, 3) / 7, step_max=1e-2,
                     max_agents=200,
                     record_grid=geometric_record_grid(0.1, injection_time(schedule, 196), 40))


def far_founders_config(dim):
    # weak coupling (c t_end < 1) and one founder far from the source mean: the
    # arrivals keep landing on one side of the founder, so m1 stays far from
    # the origin and each arrival moves it far
    schedule = PowerExponentialSchedule(alpha=0.5, n0=1)
    return SimConfig(dim=dim, kernel=constant_kernel(0.01), schedule=schedule,
                     source=gaussian_source(np.zeros(dim), 1.0),
                     initial_opinions=np.full((1, dim), 1000.0), step_max=1e-2, max_agents=800,
                     record_grid=geometric_record_grid(0.5, injection_time(schedule, 799), 64))


class TestAffineEngine:
    """The constant kernel's (m1, V) recursion against the particle reference."""

    V_RTOL = 1e-13
    M1_TOL = 1e-15  # times max(1, the largest opinion coordinate)

    def m1_scale(self, config, series):
        return max(1.0, float(np.abs(np.vstack([config.initial_opinions, series.x_new])).max()))

    @pytest.mark.parametrize("config", [
        regime_config(0.5), regime_config(1.5), d3_config("uniform"),
        d3_config("two_point")], ids=["regime-0.5", "regime-1.5", "d3-uniform", "d3-two-point"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_particle_reference(self, config, seed):
        series = run_simulation(config, seed)
        ref = particle_reference(config, series)
        v, m1 = ref["v"], ref["m1"]
        # rows that are exactly 0 (the regime's founders all sit at 0) stay so
        assert np.array_equal(series.v == 0.0, v == 0.0)
        np.testing.assert_allclose(series.v, v, rtol=self.V_RTOL, atol=0.0)
        assert np.abs(series.m1 - m1).max() <= self.M1_TOL * self.m1_scale(config, series)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_far_founders_hold_accuracy(self, dim):
        config = far_founders_config(dim)
        series = run_simulation(config, seed=5)
        v = particle_reference(config, series)["v"]
        np.testing.assert_allclose(series.v, v, rtol=self.V_RTOL, atol=0.0)
        # The reference's m1 carries about 1e-15 of the founders' 1000 per
        # coordinate from its flow updates, so m1 is held to the exact mean,
        # which the flow conserves: that of the founders and arrivals so far.
        points = np.vstack([config.initial_opinions, series.x_new])
        exact = np.array([[math.fsum(points[:n, j]) / n for j in range(dim)] for n in series.n])
        assert np.abs(series.m1 - exact).max() <= self.M1_TOL * self.m1_scale(config, series)

    def test_long_decay_holds_accuracy(self):
        # c = 50 and unit gaps: V decays by e^{-50} to each grid record and by
        # e^{-100} to the next arrival
        c = 50.0
        config = SimConfig(
            dim=2, kernel=constant_kernel(c),
            schedule=ExplicitSchedule(n0=3, times=tuple(float(j) for j in range(1, 25))),
            source=gaussian_source((1.0, -2.0), 1.0),
            initial_opinions=np.array([[0.0, 1.0], [1.0, 0.5], [-1.0, 2.0]]),
            step_max=1e-2, max_agents=27, record_grid=tuple(j + 0.5 for j in range(25)))
        series = run_simulation(config, seed=4)
        assert len(series.injection_pairs) == 24
        ref = particle_reference(config, series)
        v, m1 = ref["v"], ref["m1"]
        assert np.abs(series.m1 - m1).max() <= self.M1_TOL * self.m1_scale(config, series)
        # A decayed V (about 1e-22 and 1e-44 of m2 here) is below what the
        # particle reference resolves: its opinions carry roundoff of about
        # 1e-16 |x|. Those rows are held to the exact decay law instead, and the
        # rows the reference resolves to it.
        resolved = v >= 1e-8 * np.maximum(1.0, series.m2)
        assert resolved.sum() == 1 + 24  # t = 0 and every post_jump row
        np.testing.assert_allclose(series.v[resolved], v[resolved], rtol=self.V_RTOL, atol=0.0)
        decayed = np.array([ev != "post_jump" for ev in series.event])[1:]
        exact = series.v[:-1] * np.exp(-2.0 * c * np.diff(series.t))
        np.testing.assert_allclose(series.v[1:][decayed], exact[decayed], rtol=self.V_RTOL,
                                   atol=0.0)

    def test_running_mean_is_the_exact_mean_at_many_arrivals(self):
        # 2e4 arrivals from a source away from the founders: m1 is held to the
        # exact running mean, which a Welford recursion misses by about 3e-15 scale
        schedule = PowerExponentialSchedule(alpha=1.5, n0=10)
        config = SimConfig(dim=1, kernel=constant_kernel(1.0), schedule=schedule,
                           source=gaussian_source(5.0, 1.0), initial_opinions=np.zeros((10, 1)),
                           max_agents=10 + 20000)
        series = run_simulation(config, seed=1)
        points = np.concatenate([config.initial_opinions[:, 0], series.x_new[:, 0]])
        rows = range(0, len(series.event), 37)
        exact = np.array([math.fsum(points[:series.n[i]]) / series.n[i] for i in rows])
        assert np.abs(series.m1[rows, 0] - exact).max() <= (
            self.M1_TOL * self.m1_scale(config, series))

    def test_long_spans_decay_without_overflow(self):
        # a span of 399 with c = 1 decays V by e^{-798}, below the smallest
        # float: the pre_jump row at t = 400 holds exactly 0, with no warning
        config = SimConfig(dim=1, kernel=constant_kernel(1.0),
                           schedule=ExplicitSchedule(n0=2, times=(1.0, 400.0, 401.0)),
                           source=gaussian_source(0.5, 1.0),
                           initial_opinions=np.array([[0.0], [1.0]]), horizon=450.0,
                           record_grid=uniform_record_grid(450.0, 50.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = run_simulation(config, seed=3)
        assert not np.isnan(series.v).any() and not np.isnan(series.m1).any()
        pre = [i for i, ev in enumerate(series.event) if ev == "pre_jump" and series.t[i] == 400.0]
        assert series.v[pre].tolist() == [0.0]
        ref = recursion_reference(config, series)
        assert np.array_equal(series.v == 0.0, ref["v"] == 0.0)
        np.testing.assert_allclose(series.v, ref["v"], rtol=1e-15, atol=0.0)
        assert np.abs(series.m1 - ref["m1"]).max() <= self.M1_TOL * self.m1_scale(config, series)

    def test_spans_summing_past_many_pieces(self):
        # no span is longer than a piece of the prefix pass, but together they
        # decay V by e^{-1120}, past any one scan's float range; V stays within
        # 1e-14 of its exact value, which pieces spanning 600 of 2c t miss by
        # about 4e-14 through the rounding of their exponents
        c = 0.7
        config = SimConfig(dim=2, kernel=constant_kernel(c),
                           schedule=ExplicitSchedule(n0=3, times=tuple(2.0 * j for j in range(1, 401))),
                           source=gaussian_source((0.5, -1.0), 1.0),
                           initial_opinions=np.array([[0.0, 1.0], [1.0, 0.5], [-1.0, 2.0]]),
                           max_agents=403, record_grid=uniform_record_grid(800.0, 1.7))
        assert 2.0 * c * 2.0 < dynamics._PIECE < 2.0 * c * 800.0 / 10
        assert 2.0 * c * 800.0 > math.log(np.finfo(float).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = run_simulation(config, seed=3)
        assert not np.isnan(series.v).any()
        np.testing.assert_allclose(series.v, exact_v(config, series), rtol=1e-14, atol=0.0)



class TestParticleEngine:
    """The particle engine, which advances one buffer in place, against the
    replay of its run through the public step API."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_run_is_its_public_replay(self, dim):
        schedule = PowerExponentialSchedule(alpha=1.5, n0=3)
        config = SimConfig(
            dim=dim, kernel=rational_kernel(0.5, 0.8), schedule=schedule,
            source=gaussian_source(np.linspace(0.2, -0.4, dim), 1.0),
            initial_opinions=np.linspace(-1.0, 1.0, 3 * dim).reshape(3, dim), step_max=0.05,
            max_agents=40,
            record_grid=geometric_record_grid(0.1, injection_time(schedule, 37), 12))
        series = run_simulation(config, seed=8)
        for name, col in particle_reference(config, series).items():
            assert getattr(series, name).tobytes() == col.tobytes(), name

    @staticmethod
    def pairwise_config(arrivals):
        # the jump-audit config: rational kernel in d = 2, two founders
        return SimConfig(
            dim=2, kernel=rational_kernel(0.5, 0.5),
            schedule=PowerExponentialSchedule(alpha=0.5, n0=2),
            source=gaussian_source((0.25, -0.5), 1.0),
            initial_opinions=np.array([[0.5, 0.0], [-0.5, 0.3]]), step_max=0.05,
            max_agents=2 + arrivals)

    def test_pairwise_run_takes_d_from_its_force_passes(self, monkeypatch):
        # every row's D, pre rows included, is dissipation_of of the replayed
        # opinions bit for bit, and the run itself makes no dissipation_of call
        assert not hasattr(dynamics, "dissipation_of")
        calls = []
        reference = dissipation_of

        def counted(*args):
            calls.append(args[0].shape[0])
            return reference(*args)

        config = self.pairwise_config(500)
        with monkeypatch.context() as patch:
            patch.setattr(observables, "dissipation_of", counted)
            series = run_simulation(config, seed=1)
        assert len(series.injection_pairs) == 500
        assert calls == []
        for name, col in particle_reference(config, series).items():
            assert getattr(series, name).tobytes() == col.tobytes(), name

    @pytest.mark.parametrize("entry", ["run", "rhs", "interval", "dissipation"])
    def test_passes_run_on_one_blas_thread_and_restore_the_count(self, entry, monkeypatch):
        # every pass uses one OpenBLAS thread, whichever entry point makes it,
        # and the caller's count is back after the call, and after one that
        # raises
        blas = kernels._openblas()
        if blas is None:
            pytest.skip("numpy bundles no OpenBLAS with thread-count symbols")
        get, set_ = blas
        config = self.pairwise_config(3)
        state = state_of(config.initial_opinions)
        call = {"run": lambda: run_simulation(config, seed=1),
                "rhs": lambda: rhs(state, config.kernel),
                "interval": lambda: integrate_interval(state, config.kernel, 0.2, 0.05),
                "dissipation": lambda: dissipation_of(state.opinions, config.kernel)}[entry]
        before, seen = get(), []
        evaluate = Kernel.eval_squared

        def counted(self, r2, out=None):
            seen.append(get())
            return evaluate(self, r2, out)

        def failing(self, r2, out=None):
            raise RuntimeError("pass failed")

        try:
            set_(2)
            caller = get()
            monkeypatch.setattr(Kernel, "eval_squared", counted)
            call()
            assert seen and set(seen) == {1}
            assert get() == caller
            monkeypatch.setattr(Kernel, "eval_squared", failing)
            with pytest.raises(RuntimeError, match="pass failed"):
                call()
            assert get() == caller
        finally:
            set_(before)

    @pytest.mark.parametrize("n", TILE_EDGE_SIZES)
    def test_dissipation_at_tile_edges(self, n):
        # the run ends with n agents; its pre/post pairs straddle every tile
        # edge below n, where the newcomer opens a tile of its own
        config = self.pairwise_config(n - 2)
        series = run_simulation(config, seed=n)
        ref = particle_reference(config, series)
        assert series.dissipation.tobytes() == ref["dissipation"].tobytes()

    @pytest.mark.parametrize("dim", [1, 3])
    def test_grid_records_up_to_a_horizon(self, dim):
        # grid records between arrivals and a horizon that is the last row, a
        # record, so a record's D comes from the span after it, and the last
        # row's from a pass of its own
        schedule = PowerExponentialSchedule(alpha=1.0, n0=4)
        horizon = 0.5 * (injection_time(schedule, 30) + injection_time(schedule, 31))
        config = SimConfig(
            dim=dim, kernel=rational_kernel(0.3, 1.2), schedule=schedule,
            source=gaussian_source(np.linspace(0.5, -0.5, dim), 2.0),
            initial_opinions=np.linspace(-1.0, 2.0, 4 * dim).reshape(4, dim), step_max=0.05,
            horizon=horizon, record_grid=uniform_record_grid(horizon, 0.1))
        series = run_simulation(config, seed=3)
        assert len(series.injection_pairs) == 30
        assert series.event[-1] == "record" and series.t[-1] == horizon
        assert series.event.count("record") > 31
        for name, col in particle_reference(config, series).items():
            assert getattr(series, name).tobytes() == col.tobytes(), name

    def test_rows_after_a_zero_length_span_take_their_own_passes(self):
        # no config makes a span of 0 after a row, so the timeline is built by
        # hand: the record at 0.3 is followed by one at 0.3, and the arrival
        # pair at 0.6 by a record at 0.6; the span of 0 takes no step, and each
        # row's D still comes from the pass at its own opinions
        config = self.pairwise_config(1)
        tl = dynamics._Timeline(
            event=("record", "record", "record", "pre_jump", "post_jump", "record", "record"),
            t=np.array([0.0, 0.3, 0.3, 0.6, 0.6, 0.6, 0.9]),
            k=np.array([0, 0, 0, 1, 1, 1, 1]), n=np.array([2, 2, 2, 2, 3, 3, 3]),
            arrivals=np.array([0.6]))
        x_new = np.array([[[1.0, -1.0]]])
        dis = dynamics._particle_block(config, tl, x_new)["dissipation"][0]
        state = state_of(config.initial_opinions)
        want = []
        for ev, t in zip(tl.event, tl.t):
            if ev == "post_jump":
                state = with_arrival(state, x_new[0, 0])
            else:
                state = integrate_interval(state, config.kernel, t, step_max=config.step_max)
            want.append(dissipation_of(state.opinions, config.kernel))
        assert dis.tobytes() == np.array(want).tobytes()


PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
OPINIONS = st.tuples(st.integers(1, 40), st.integers(1, 3)).flatmap(
    lambda shape: arrays(float, shape, elements=st.floats(-100.0, 100.0)))
CONSTANT_KERNELS = st.floats(0.05, 20.0).map(constant_kernel)
RATIONAL_KERNELS = st.builds(rational_kernel, st.floats(0.05, 2.0), st.floats(0.0, 4.0))
SPANS = st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=4)
# constant: any step, it does not enter; rational: steps a stable RK4 resolves
KERNEL_STEPS = st.one_of(
    st.tuples(CONSTANT_KERNELS, st.floats(1e-3, 10.0)),
    st.tuples(RATIONAL_KERNELS, st.floats(0.02, 0.1)),
)


def flow_through(x, kernel, step_max, spans):
    """States at the ends of consecutive intervals of the given lengths."""
    states = [state_of(x)]
    for span in spans:
        states.append(integrate_interval(states[-1], kernel, states[-1].t + span,
                                         step_max=step_max))
    return states


class TestFlowProperties:
    @PROPERTY_SETTINGS
    @given(x=OPINIONS, kernel_step=KERNEL_STEPS, spans=SPANS)
    def test_mean_conserved(self, x, kernel_step, spans):
        kernel, step_max = kernel_step
        m1_0 = x.mean(axis=0)
        scale = max(1.0, float(np.abs(x).max()))
        for state in flow_through(x, kernel, step_max, spans)[1:]:
            drift = np.abs(state.opinions.mean(axis=0) - m1_0).max()
            assert drift <= MEAN_DRIFT_TOL * scale

    @PROPERTY_SETTINGS
    @given(x=OPINIONS, kernel_step=KERNEL_STEPS, spans=SPANS)
    def test_variance_nonincreasing(self, x, kernel_step, spans):
        kernel, step_max = kernel_step
        target = np.zeros(x.shape[1])
        moments = [compute_moments(state.opinions, kernel, target, state.t)
                   for state in flow_through(x, kernel, step_max, spans)]
        for before, after in zip(moments, moments[1:]):
            assert after.v <= before.v + 1e-12 * max(1.0, before.m2)


class TestRecordGrids:
    def test_uniform_includes_endpoint(self):
        assert uniform_record_grid(1.0, 0.25) == (0.25, 0.5, 0.75, 1.0)
        grid = uniform_record_grid(1.0, 0.3)
        assert grid[-1] == 1.0

    @pytest.mark.parametrize("t_end, dt", [(29.2, 0.2), (3.8999999999999995, 0.03),
                                           (1.0, 0.25), (1.0, 0.3), (0.05, 0.2)])
    def test_uniform_ends_exactly_at_t_end(self, t_end, dt):
        # i*dt can round past t_end (29.2 / 0.2 gives 29.200000000000003)
        grid = uniform_record_grid(t_end, dt)
        assert grid[-1] == t_end
        assert max(grid) == t_end and grid == tuple(sorted(set(grid)))
        config = small_config(schedule=ExplicitSchedule(n0=3, times=(2 * t_end,)),
                              max_agents=None, horizon=t_end, record_grid=grid)
        series = run_simulation(config, seed=1)
        assert series.t[-1] == t_end and series.event[-1] == "record"

    def test_uniform_count_beyond_memory_raises_at_once(self):
        with pytest.raises(ValueError, match=r"dt = 1e-300 up to t_end = 1.0"):
            uniform_record_grid(1.0, 1e-300)

    def test_geometric_endpoints(self):
        grid = geometric_record_grid(0.1, 10.0, 7)
        assert math.isclose(grid[0], 0.1) and math.isclose(grid[-1], 10.0)
        assert len(grid) == 7

    @pytest.mark.parametrize("t_end", [1e-3, 2.0, 1532.25])
    def test_geometric_grid_defaults(self, t_end):
        grid = geometric_record_grid(None, t_end)
        assert np.array(grid).tobytes() == np.array(
            geometric_record_grid(t_end / 100, t_end, 64)).tobytes()

    def test_run_that_ends_at_zero_gets_no_record_time(self):
        assert geometric_record_grid(None, 0.0) == ()
        assert geometric_record_grid(None, 1e-322) == ()  # t_end / 100 underflows to 0.0
        assert geometric_record_grid(None, 0.0, 8) == ()
        assert uniform_record_grid(0.0, 0.1) == ()

    def test_invalid_grids_rejected(self):
        with pytest.raises(ValueError):
            uniform_record_grid(1.0, 0.0)
        with pytest.raises(ValueError):
            geometric_record_grid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            geometric_record_grid(0.1, 1.0, 1)
        with pytest.raises(ValueError, match="t_end"):
            uniform_record_grid(math.inf, 0.1)
        with pytest.raises(ValueError, match="t_end"):
            geometric_record_grid(0.1, math.inf, 5)


class TestConfigValidation:
    @pytest.mark.parametrize("kernel, max_agents", [(constant_kernel(1.0), 200),
                                                    (rational_kernel(0.5, 0.5), 20)],
                             ids=["constant", "rational"])
    def test_left_out_dim_and_founders_come_from_the_source(self, kernel, max_agents):
        # dim is the source's, and the schedule's one founder sits at its mean
        bare = SimConfig(kernel=kernel, schedule=PowerExponentialSchedule(alpha=0.5),
                         source=gaussian_source(0.0, 1.0), max_agents=max_agents)
        full = SimConfig(kernel=kernel, schedule=PowerExponentialSchedule(alpha=0.5, n0=1),
                         source=gaussian_source(0.0, 1.0), dim=1,
                         initial_opinions=np.zeros((1, 1)), max_agents=max_agents)
        assert bare.dim == 1 and bare.initial_opinions.tobytes() == np.zeros((1, 1)).tobytes()
        a, b = run_simulation(bare, seed=3), run_simulation(full, seed=3)
        for field in dataclasses.fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field.name
            else:
                assert x == y, field.name

    def test_founders_left_out_are_in_the_sources_dim(self):
        config = SimConfig(kernel=constant_kernel(1.0),
                           schedule=ExplicitSchedule(times=(1.0,), n0=2),
                           source=gaussian_source((0.25, -0.5), 1.0), horizon=2.0)
        assert config.dim == 2
        assert config.initial_opinions.tolist() == [[0.25, -0.5], [0.25, -0.5]]
        assert not config.initial_opinions.flags.writeable

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="initial_opinions"):
            small_config(initial_opinions=np.zeros((4, 1)))

    def test_missing_stop_condition(self):
        with pytest.raises(ValueError, match="horizon"):
            small_config(max_agents=None, horizon=None)

    def test_max_agents_beyond_explicit_schedule(self):
        with pytest.raises(ValueError, match="max_agents"):
            small_config(schedule=ExplicitSchedule(n0=3, times=(0.5,)), max_agents=6)

    def test_source_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            small_config(source=gaussian_source((0.0, 0.0), 1.0))

    def test_bad_step(self):
        with pytest.raises(ValueError, match="step_max"):
            small_config(step_max=0.0)

    def test_frozen(self):
        config = small_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.step_max = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.initial_opinions = np.zeros((3, 1))

    def test_owns_a_read_only_copy_of_the_opinions(self):
        x0 = np.array([[-1.0], [0.5], [1.5]])
        config = small_config(initial_opinions=x0)
        assert x0.flags.writeable
        assert not config.initial_opinions.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            config.initial_opinions[0, 0] = 2.0
        x0[0, 0] = 7.0
        assert config.initial_opinions.tolist() == [[-1.0], [0.5], [1.5]]

    def test_owns_a_tuple_copy_of_the_record_grid(self):
        # times appended to the list passed in later never reach the config,
        # which checked its grid once, when it was built
        grid = [0.25, np.float64(0.5)]
        config = small_config(record_grid=grid)
        grid += [math.nan, -3.0]
        assert config.record_grid == (0.25, 0.5)
        assert all(type(g) is float for g in config.record_grid)
