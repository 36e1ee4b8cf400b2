"""Moment functionals, arrival jump laws, and exact expectation formulas.

Jump laws and expectation formulas are checked two independent ways: against
brute-force recomputation from raw opinions, and (for the expectations)
against seeded Monte Carlo with 5-sigma bands.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from growpop import (
    compute_moments,
    constant_kernel,
    dissipation_of,
    expected_m1_deviation,
    predict_jumps,
    rational_kernel,
)
from growpop.kernels import _TILE_ROWS

RNG = np.random.default_rng(133700)

MOMENT_RTOL = 1e-13
JUMP_RTOL = 1e-12


def brute_moments(x, m):
    n = x.shape[0]
    m1 = x.sum(axis=0) / n
    m2 = sum(float(row @ row) for row in x) / n
    v = sum(float((row - m1) @ (row - m1)) for row in x) / n
    w = sum(float((row - m) @ (row - m)) for row in x) / n
    return m1, m2, v, w


def brute_dissipation(x, kernel):
    n = x.shape[0]
    diff = x[None, :, :] - x[:, None, :]
    r2 = (diff * diff).sum(axis=2)
    return -float(((kernel.a + kernel.b / (1.0 + r2)) * r2).sum()) / (n * n)


def record_of(x, kernel, m):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return compute_moments(x, kernel, m, 0.0)


class TestComputeMoments:
    @pytest.mark.parametrize("n,d", [(1, 1), (3, 1), (10, 2), (25, 3)])
    def test_matches_brute_force(self, n, d):
        kernel = rational_kernel(0.5, 0.5)
        x = RNG.normal(0.0, 2.0, size=(n, d))
        m = RNG.normal(0.0, 1.0, size=d)
        rec = record_of(x, kernel, m)
        m1, m2, v, w = brute_moments(x, m)
        np.testing.assert_allclose(rec.m1, m1, rtol=MOMENT_RTOL, atol=1e-15)
        np.testing.assert_allclose(rec.m2, m2, rtol=MOMENT_RTOL)
        np.testing.assert_allclose(rec.v, v, rtol=MOMENT_RTOL, atol=1e-15)
        np.testing.assert_allclose(rec.w, w, rtol=MOMENT_RTOL, atol=1e-15)

    def test_decompositions_hold(self):
        x = RNG.normal(0.0, 1.0, size=(20, 2))
        m = np.array([0.5, -0.5])
        rec = record_of(x, constant_kernel(1.0), m)
        np.testing.assert_allclose(rec.v, rec.m2 - float(rec.m1 @ rec.m1), rtol=1e-12)
        np.testing.assert_allclose(
            rec.w, rec.v + float((rec.m1 - m) @ (rec.m1 - m)), rtol=1e-12)

    def test_coincident_population_gives_exact_zero_variance(self):
        x = np.tile(np.array([0.37, -4.2]), (13, 1))
        rec = record_of(x, constant_kernel(1.0), np.array([0.37, -4.2]))
        assert rec.v == 0.0
        assert rec.w == 0.0
        assert rec.dissipation == 0.0

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("maker", [lambda: constant_kernel(0.9),
                                       lambda: rational_kernel(0.4, 1.1)])
    def test_non_finite_opinion_raises(self, bad, maker):
        x = np.array([[0.0], [bad], [1.0]])
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="self-check"):
            record_of(x, maker(), np.zeros(1))

    # the last 36 fill about a quarter or half of a tile, half a tile and three
    # rows, sit on both sides of a tile edge, or fill one tile and three rows,
    # or two tiles and three rows of the pair sums
    @pytest.mark.parametrize("n,d", [(2, 1), (7, 2), (12, 3)] + [
        (n, d) for n in (_TILE_ROWS // 4 - 1, _TILE_ROWS // 4, _TILE_ROWS // 4 + 1,
                         _TILE_ROWS // 2 - 1, _TILE_ROWS // 2, _TILE_ROWS // 2 + 1,
                         _TILE_ROWS // 2 + 3, _TILE_ROWS - 1, _TILE_ROWS, _TILE_ROWS + 1,
                         _TILE_ROWS + 3, 2 * _TILE_ROWS + 3)
        for d in (1, 2, 3)])
    @pytest.mark.parametrize("maker", [lambda: constant_kernel(0.9),
                                       lambda: rational_kernel(0.4, 1.1)])
    def test_dissipation_matches_brute_force(self, n, d, maker):
        kernel = maker()
        x = RNG.normal(0.0, 1.5, size=(n, d))
        np.testing.assert_allclose(dissipation_of(x, kernel),
                                   brute_dissipation(x, kernel), rtol=1e-12)

    def test_dissipation_nonpositive(self):
        for _ in range(20):
            x = RNG.normal(0.0, 2.0, size=(8, 2))
            assert dissipation_of(x, rational_kernel(0.5, 0.5)) <= 0.0

    def test_constant_kernel_dissipation_is_minus_two_c_v(self):
        c = 0.75
        x = RNG.normal(0.0, 1.0, size=(15, 2))
        rec = record_of(x, constant_kernel(c), np.zeros(2))
        np.testing.assert_allclose(rec.dissipation, -2.0 * c * rec.v, rtol=1e-13)


class TestPredictJumps:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k,n0", [(1, 5), (4, 2), (30, 1)])
    def test_matches_recomputation(self, d, k, n0):
        kernel = constant_kernel(1.0)
        m = np.zeros(d)
        x_pre = RNG.normal(0.0, 1.0, size=(n0 + k - 1, d))
        x_new = RNG.normal(0.0, 1.0, size=d)
        pre = record_of(x_pre, kernel, m)
        post = record_of(np.vstack([x_pre, x_new[None, :]]), kernel, m)
        pred = predict_jumps(pre, x_new, k, n0)
        scale = max(1.0, abs(pre.m2), float(x_new @ x_new))
        np.testing.assert_allclose(post.m1 - pre.m1, pred.dm1,
                                   rtol=0, atol=JUMP_RTOL * scale)
        np.testing.assert_allclose(post.m2 - pre.m2, pred.dm2,
                                   rtol=0, atol=JUMP_RTOL * scale)
        np.testing.assert_allclose(post.v - pre.v, pred.dv,
                                   rtol=0, atol=JUMP_RTOL * scale)

    def test_w_jump_follows_from_parts(self):
        # dW = dV + |m1+ - m|^2 - |m1- - m|^2; no separate law needed
        d, n0, k = 2, 3, 6
        m = np.array([0.4, -0.1])
        x_pre = RNG.normal(0.0, 1.0, size=(n0 + k - 1, d))
        x_new = RNG.normal(0.0, 1.0, size=d)
        kernel = constant_kernel(1.0)
        pre = record_of(x_pre, kernel, m)
        post = record_of(np.vstack([x_pre, x_new[None, :]]), kernel, m)
        pred = predict_jumps(pre, x_new, k, n0)
        m1p = pre.m1 + pred.dm1
        dw = pred.dv + float((m1p - m) @ (m1p - m)) - float((pre.m1 - m) @ (pre.m1 - m))
        np.testing.assert_allclose(post.w - pre.w, dw, rtol=0, atol=1e-12)

    def test_population_mismatch_rejected(self):
        pre = record_of(RNG.normal(size=(5, 1)), constant_kernel(1.0), np.zeros(1))
        with pytest.raises(ValueError, match="population"):
            predict_jumps(pre, np.zeros(1), k=3, n0=1)  # needs n = 3, record has 5

    def test_bad_indices_rejected(self):
        pre = record_of(RNG.normal(size=(5, 1)), constant_kernel(1.0), np.zeros(1))
        with pytest.raises(ValueError):
            predict_jumps(pre, np.zeros(1), k=0, n0=5)
        with pytest.raises(ValueError):
            predict_jumps(pre, np.zeros(1), k=1, n0=0)

    def test_shape_mismatch_rejected(self):
        pre = record_of(RNG.normal(size=(5, 2)), constant_kernel(1.0), np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            predict_jumps(pre, np.zeros(3), k=1, n0=5)


COORDS = st.floats(-100.0, 100.0)
KERNELS = st.one_of(st.floats(0.05, 20.0).map(constant_kernel),
                    st.builds(rational_kernel, st.floats(0.05, 2.0), st.floats(0.0, 4.0)))


@st.composite
def arrivals(draw):
    """A pre-arrival population of N <= 40 in d <= 3, the arrival, and n0 <= N."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    x_pre = draw(arrays(float, (n, d), elements=COORDS))
    x_new = draw(arrays(float, (d,), elements=COORDS))
    return x_pre, x_new, draw(st.integers(1, n))


class TestJumpLawProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(arrival=arrivals(), kernel=KERNELS)
    def test_injection_matches_predicted_jumps(self, arrival, kernel):
        x_pre, x_new, n0 = arrival
        k = x_pre.shape[0] - n0 + 1
        m = np.zeros(x_pre.shape[1])
        pre = compute_moments(x_pre, kernel, m, 0.5)
        post = compute_moments(np.vstack([x_pre, x_new]), kernel, m, 0.5)
        pred = predict_jumps(pre, x_new, k, n0)
        scale = max(1.0, abs(pre.m2), float(x_new @ x_new))
        residual = max(float(np.max(np.abs((post.m1 - pre.m1) - pred.dm1))),
                       abs((post.m2 - pre.m2) - pred.dm2),
                       abs((post.v - pre.v) - pred.dv))
        assert residual <= JUMP_RTOL * scale


class TestMeanClosedForms:
    def test_expected_deviation_no_arrivals(self):
        x0 = np.array([[1.0], [3.0]])
        m = np.array([1.5])
        out = expected_m1_deviation(2, 0, x0, m, 1.0)
        # deterministic start: E|m1 - m|^2 = |mean(x0) - m|^2 exactly
        assert type(out) is float
        assert out == ((2.0 - 1.5) ** 2)

    def test_expected_deviation_against_monte_carlo(self):
        n0, k, sigma2 = 3, 12, 0.7
        x0 = RNG.normal(0.0, 1.0, size=(n0, 2))
        m = np.array([0.3, -0.2])
        out = expected_m1_deviation(n0, k, x0, m, sigma2)

        draws = 40_000
        rng = np.random.default_rng(99)
        xs = m + rng.normal(0.0, np.sqrt(sigma2 / 2.0), size=(draws, k, 2))
        m1 = (x0.sum(axis=0) + xs.sum(axis=1)) / (n0 + k)
        dev2 = np.einsum("ij,ij->i", m1 - m, m1 - m)
        half = 5.0 * dev2.std(ddof=1) / np.sqrt(draws)
        assert abs(dev2.mean() - out) < half

    def test_deviation_shrinks_like_inverse_square_population(self):
        # with x0 on target (A = 0): E|m1 - m|^2 = k sigma2 / (n0 + k)^2
        n0, sigma2 = 4, 1.3
        x0 = np.full((n0, 1), 2.0)
        m = np.array([2.0])
        for k in (1, 10, 100, 10_000):
            out = expected_m1_deviation(n0, k, x0, m, sigma2)
            assert out == k * sigma2 / float(n0 + k) ** 2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            expected_m1_deviation(0, 1, np.zeros((1, 1)), np.zeros(1), 1.0)
        with pytest.raises(ValueError):
            expected_m1_deviation(1, -1, np.zeros((1, 1)), np.zeros(1), 1.0)
        with pytest.raises(ValueError):
            expected_m1_deviation(1, 1, np.zeros((1, 1)), np.zeros(1), -1.0)


class TestArrivalSumIdentities:
    """Second-moment identities for i.i.d. arrivals, verified by Monte Carlo."""

    def test_pairwise_difference_sum(self):
        # E | sum_{j<k} (X_j - X_k) |^2 = k (k-1) sigma2 for i.i.d. X with
        # E|X - m|^2 = sigma2 (here: the sum over one fixed k of X_j - X_k)
        k, sigma2, draws = 6, 0.8, 60_000
        rng = np.random.default_rng(512)
        xs = rng.normal(0.0, np.sqrt(sigma2), size=(draws, k))
        s = xs[:, :-1].sum(axis=1) - (k - 1) * xs[:, -1]
        sample = s**2
        exact = k * (k - 1) * sigma2
        half = 5.0 * sample.std(ddof=1) / np.sqrt(draws)
        assert abs(sample.mean() - exact) < half

    def test_cross_term_with_initial_block(self):
        # E [ (sum_j (X_j - m)) . (X_k - m) ] = sigma2 when j ranges over a
        # block containing k, zero otherwise; scaled by N0 it is N0 (k-1) ... 0
        k, sigma2, draws, n0 = 5, 1.1, 60_000, 3
        rng = np.random.default_rng(513)
        xs = rng.normal(0.0, np.sqrt(sigma2), size=(draws, k))
        block = xs[:, :-1].sum(axis=1)  # arrivals before k, centered already
        cross = n0 * block * xs[:, -1]
        half = 5.0 * np.abs(cross).std(ddof=1) / np.sqrt(draws)
        assert abs(cross.mean()) < half  # independent: expectation zero
        self_term = n0 * xs[:, -1] * xs[:, -1]
        half = 5.0 * self_term.std(ddof=1) / np.sqrt(draws)
        assert abs(self_term.mean() - n0 * sigma2) < half
