"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the toolkit against an
independent yardstick -- closed forms, conserved quantities, jump laws,
boundary sums, comparison-integral values, ensemble statistics, regime contrast
against exact expectations, envelope domination, arrival identities,
bit-for-bit reproducibility, and the paper's algebraic rate -- and prints a
single PASS/FAIL line (visible with ``pytest -s``).

An ensemble is held to an exact expectation row by row: |mean - exact| <=
z* stderr, with z* the two-sided normal quantile for a false-alarm rate of
1e-6 split over every row checked.
"""

import time
from statistics import NormalDist

import numpy as np
import pytest
from scipy import stats as sps

import growpop as gp
from growpop.cli import emit_series_csv
from growpop.sources import _draw_incoming

# Wall-clock budgets, generous multiples of observed runtimes.
DECAY_BUDGET_S = 1.0
JUMP_AUDIT_BUDGET_S = 30.0
MEAN_DEV_BUDGET_S = 300.0
REGIME_BUDGET_S = 1800.0
IDENTITY_BUDGET_S = 10.0

WORKERS = 4

# False-alarm rate of one ensemble-against-exact check, over all its rows.
FALSE_ALARM = 1e-6


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")


# ---------------------------------------------------------------------------
# shared runs (built once, reused by the reproducibility check)
# ---------------------------------------------------------------------------

def _decay_config() -> gp.SimConfig:
    # Population held fixed: the lone scheduled arrival is beyond the horizon.
    return gp.SimConfig(
        dim=1,
        kernel=gp.constant_kernel(1.0),
        schedule=gp.ExplicitSchedule(n0=8, times=(2.0,)),
        source=gp.gaussian_source(0.0, 1.0),
        initial_opinions=np.linspace(-1.0, 2.0, 8).reshape(8, 1),
        step_max=1e-3,
        horizon=1.0,
        record_grid=gp.uniform_record_grid(1.0, 0.05),
    )


DECAY_SEED = 1


def _jump_audit_config() -> gp.SimConfig:
    return gp.SimConfig(
        dim=2,
        kernel=gp.rational_kernel(0.5, 0.5),
        schedule=gp.PowerExponentialSchedule(alpha=0.5, n0=2),
        source=gp.gaussian_source((0.25, -0.5), 1.0),
        initial_opinions=np.array([[0.5, 0.0], [-0.5, 0.3]]),
        step_max=0.05,
        max_agents=502,
    )


JUMP_AUDIT_SEED = 20260817


def _mean_dev_config() -> gp.SimConfig:
    # Single founder sitting exactly at the source mean.
    return gp.SimConfig(
        dim=1,
        kernel=gp.constant_kernel(1.0),
        schedule=gp.PowerExponentialSchedule(alpha=0.5, n0=1),
        source=gp.gaussian_source(0.0, 1.0),
        initial_opinions=np.zeros((1, 1)),
        step_max=1e-2,
        max_agents=101,
    )


MEAN_DEV_RUNS = 200
MEAN_DEV_SEED = 101

REGIME_N0 = 10
REGIME_TARGET = 2000
REGIME_RUNS = 100
REGIME_SEED = 2024


def _regime_config(alpha: float) -> gp.SimConfig:
    sched = gp.PowerExponentialSchedule(alpha=alpha, n0=REGIME_N0)
    t_end = gp.injection_time(sched, REGIME_TARGET - REGIME_N0)
    return gp.SimConfig(
        dim=1,
        kernel=gp.constant_kernel(1.0),
        schedule=sched,
        source=gp.gaussian_source(0.0, 1.0),
        initial_opinions=np.zeros((REGIME_N0, 1)),
        step_max=1e-2,
        max_agents=REGIME_TARGET,
        record_grid=gp.geometric_record_grid(0.5, t_end, 64),
    )


@pytest.fixture(scope="module")
def decay_run():
    t0 = time.perf_counter()
    series = gp.run_simulation(_decay_config(), seed=DECAY_SEED)
    return series, time.perf_counter() - t0


@pytest.fixture(scope="module")
def jump_audit_run():
    t0 = time.perf_counter()
    series = gp.run_simulation(_jump_audit_config(), seed=JUMP_AUDIT_SEED)
    return series, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mean_dev_ensemble():
    t0 = time.perf_counter()
    stats = gp.run_ensemble(_mean_dev_config(), runs=MEAN_DEV_RUNS,
                            master_seed=MEAN_DEV_SEED, workers=WORKERS)
    return stats, time.perf_counter() - t0


@pytest.fixture(scope="module")
def regime_ensembles():
    t0 = time.perf_counter()
    stats = {alpha: gp.run_ensemble(_regime_config(alpha), runs=REGIME_RUNS,
                                    master_seed=REGIME_SEED, workers=WORKERS)
             for alpha in (0.5, 1.5)}
    return stats, time.perf_counter() - t0


def _z_star(checks: int) -> float:
    """Two-sided normal quantile for FALSE_ALARM split over ``checks`` rows."""
    return -NormalDist().inv_cdf(FALSE_ALARM / (2 * checks))


def _post_jump_row(stats: gp.EnsembleStats, k: int) -> int:
    return next(i for i, (ev, kk) in enumerate(zip(stats.event, stats.k))
                if ev == "post_jump" and kk == k)


def _grid_series(stats: gp.EnsembleStats):
    """(t, mean_w, stderr_w) at the positive-time grid records."""
    idx = [i for i, ev in enumerate(stats.event) if ev == "record" and stats.grid[i] > 0]
    return stats.grid[idx], stats.mean_w[idx], stats.stderr_w[idx]


# ---------------------------------------------------------------------------
# 1. fixed-population constant-kernel runs decay exactly like V(0) e^{-2ct}
# ---------------------------------------------------------------------------

def test_constant_kernel_exponential_decay(decay_run):
    series, elapsed = decay_run
    assert not series.injection_pairs  # population really was fixed
    v0 = series.v[0]
    is_record = np.array(series.event) == "record"
    t, v = series.t[is_record], series.v[is_record]
    rel = np.abs(v - v0 * np.exp(-2.0 * t)) / (v0 * np.exp(-2.0 * t))
    ok = float(rel.max()) <= 1e-6 and elapsed < DECAY_BUDGET_S
    _line("constant-kernel decay", ok,
          f"max rel err {rel.max():.2e} over {t.size} records, {elapsed:.2f}s")
    assert rel.max() <= 1e-6
    assert elapsed < DECAY_BUDGET_S


# ---------------------------------------------------------------------------
# 2. the opinion mean is conserved between arrivals, both kernel families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", [gp.constant_kernel(0.8), gp.rational_kernel(0.7, 0.9)],
                         ids=["constant", "rational"])
def test_mean_conservation_between_arrivals(kernel):
    n = 1000
    rng = np.random.default_rng(42)
    config = gp.SimConfig(
        dim=1,
        kernel=kernel,
        schedule=gp.ExplicitSchedule(n0=n, times=(50.0,)),
        source=gp.gaussian_source(0.3, 1.0),
        initial_opinions=rng.normal(0.3, 1.0, size=(n, 1)),
        step_max=0.1,
        horizon=10.0,
        record_grid=gp.uniform_record_grid(10.0, 2.5),
    )
    series = gp.run_simulation(config, seed=7)
    assert not series.injection_pairs
    m1_0 = series.rows[0].record.m1
    drift = max(float(np.abs(row.record.m1 - m1_0).max()) for row in series.rows)
    ok = drift <= 1e-9
    _line(f"mean conservation (a = {kernel.a:g}, b = {kernel.b:g})", ok,
          f"max |m1 drift| {drift:.2e} over length-10 interval, N={n}")
    assert drift <= 1e-9


# ---------------------------------------------------------------------------
# 3. observed arrival jumps equal the closed-form predictions
# ---------------------------------------------------------------------------

def test_arrival_jump_closed_forms(jump_audit_run):
    series, elapsed = jump_audit_run
    n0 = 2
    assert len(series.injection_pairs) == 500
    # The observed jump is a difference of O(1) moments, so it carries ~1e-16
    # representation noise; the absolute floor keeps the relative comparison
    # well-posed when a jump is accidentally tiny.
    rtol, atol = 1e-12, 1e-15
    worst_rel = worst_abs = 0.0
    for jump in series.injection_pairs:
        pred = gp.predict_jumps(jump.pre, jump.x_new, jump.k, n0)
        for obs, ref in (
            (float(np.linalg.norm((jump.post.m1 - jump.pre.m1) - pred.dm1)),
             float(np.linalg.norm(pred.dm1))),
            (abs((jump.post.m2 - jump.pre.m2) - pred.dm2), abs(pred.dm2)),
            (abs((jump.post.v - jump.pre.v) - pred.dv), abs(pred.dv)),
        ):
            worst_abs = max(worst_abs, obs)
            worst_rel = max(worst_rel, max(obs - atol, 0.0) / ref)
    ok = worst_rel <= rtol and elapsed < JUMP_AUDIT_BUDGET_S
    _line("arrival jump closed forms", ok,
          f"worst abs err {worst_abs:.2e} over 500 arrivals, {elapsed:.1f}s")
    assert worst_rel <= rtol
    assert elapsed < JUMP_AUDIT_BUDGET_S


# ---------------------------------------------------------------------------
# 4. boundary-schedule condition sums hit their closed forms exactly
# ---------------------------------------------------------------------------

def test_boundary_condition_sums():
    times = gp.asymptotic_injection_times(1.0)  # t_k = ln k
    worst = 0.0
    for n in (10, 10**3, 10**6):
        worst = max(worst, abs(gp.condition_sum(1.0, times, n) - 1.0))
        worst = max(worst, abs(gp.condition_sum(2.0, times, n) - (n + 1) / (2 * n)))
    ok = worst <= 1e-12
    _line("boundary condition sums", ok, f"worst abs err {worst:.2e} at n up to 1e6")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 5. mean-field comparison integral: closed form, pinned value, monotonicity
# ---------------------------------------------------------------------------

def test_comparison_integral_values():
    rel = max(abs(gp.dawson_f(1.0, 1.0, x) - (1.0 - np.exp(-x))) / (1.0 - np.exp(-x))
              for x in (0.1, 1.0, 10.0, 30.0))
    pinned = gp.dawson_f(2.0, 1.0, 30.0)
    tail = [gp.dawson_f(2.0, 1.0, x) for x in np.linspace(10.0, 50.0, 9)]
    decreasing = all(b < a for a, b in zip(tail, tail[1:]))
    ok = rel <= 1e-8 and 0.0160 < pinned < 0.0172 and decreasing
    _line("comparison integral", ok,
          f"p=1 rel err {rel:.2e}, F(2,1,30)={pinned:.6f}, tail decreasing={decreasing}")
    assert rel <= 1e-8
    assert 0.0160 < pinned < 0.0172
    assert decreasing


# ---------------------------------------------------------------------------
# 6. ensemble mean-square mean deviation matches (A + k sigma^2)/(n0+k)^2
# ---------------------------------------------------------------------------

def test_mean_deviation_closed_form(mean_dev_ensemble):
    stats, elapsed = mean_dev_ensemble
    details = []
    ok = elapsed < MEAN_DEV_BUDGET_S
    for k in (10, 100):
        mean, err = gp.ensemble_statistic(stats, "m1_dev", at_k=k)
        target = k / (1 + k) ** 2  # A = 0: the founder sits at the mean
        z = (mean - target) / err
        details.append(f"k={k}: z={z:+.2f}")
        ok = ok and abs(mean - target) <= 3 * err
    _line("mean-deviation closed form", ok, ", ".join(details) + f", {elapsed:.1f}s")
    for k in (10, 100):
        mean, err = gp.ensemble_statistic(stats, "m1_dev", at_k=k)
        assert abs(mean - k / (1 + k) ** 2) <= 3 * err
    assert elapsed < MEAN_DEV_BUDGET_S


# ---------------------------------------------------------------------------
# 7. slow vs fast growth: W decays under slow growth and not under fast, and
#    both ensembles match the exact constant-kernel expectations row by row
# ---------------------------------------------------------------------------

def test_growth_regime_contrast(regime_ensembles):
    stats, elapsed = regime_ensembles
    t5, w5, e5 = _grid_series(stats[0.5])
    t15, w15, e15 = _grid_series(stats[1.5])
    horizon = gp.injection_time(gp.PowerExponentialSchedule(0.5, REGIME_N0),
                                REGIME_TARGET - REGIME_N0)

    # (a) decreasing trend of the smoothed tail over the final decade
    smooth = np.convolve(w5, np.ones(5) / 5, mode="valid")
    t_smooth = t5[2:-2]
    tail = t_smooth >= horizon / 10.0
    tau, p_two = sps.kendalltau(t_smooth[tail], smooth[tail])
    p_one = p_two / 2.0 if tau < 0 else 1.0 - p_two / 2.0
    trend_ok = tau < 0 and p_one < 1e-3

    # (b) final separation between the two regimes
    gap = w15[-1] - w5[-1]
    combined = float(np.hypot(e5[-1], e15[-1]))
    sep_ok = gap >= 3 * combined

    # (c) mean V and W against expected_moments at every row; a row with zero
    # stderr (before the first arrival, all founders at the mean) exactly
    z_star = _z_star(sum(2 * st.grid.size for st in stats.values()))
    worst, exact_ok = {}, True
    for alpha, st in stats.items():
        v, w = gp.expected_moments(_regime_config(alpha))
        worst[alpha] = 0.0
        for mean, err, exact in ((st.mean_v, st.stderr_v, v), (st.mean_w, st.stderr_w, w)):
            spread = err > 0
            exact_ok = exact_ok and np.array_equal(mean[~spread], exact[~spread])
            z = np.abs(mean[spread] - exact[spread]) / err[spread]
            worst[alpha] = max(worst[alpha], float(z.max()))
    z_ok = max(worst.values()) <= z_star

    ok = trend_ok and sep_ok and exact_ok and z_ok and elapsed < REGIME_BUDGET_S
    _line("growth regime contrast", ok,
          f"tau={tau:.2f} (p={p_one:.1e}), gap={gap / combined:.0f} stderr, max |z| "
          f"{worst[0.5]:.2f} (alpha 0.5), {worst[1.5]:.2f} (alpha 1.5) <= {z_star:.2f}, "
          f"{elapsed:.0f}s")
    assert trend_ok
    assert sep_ok
    assert exact_ok
    assert z_ok
    assert elapsed < REGIME_BUDGET_S


# ---------------------------------------------------------------------------
# 8. exact E[V(t_n)] is dominated by the decay-plus-jumps envelope, and so,
#    within its z* band, is the ensemble's
# ---------------------------------------------------------------------------

def test_variance_envelope_domination(regime_ensembles):
    stats, _ = regime_ensembles
    slow = stats[0.5]
    config = _regime_config(0.5)
    sigma2 = config.source.sigma2
    v, w = gp.expected_moments(config)

    # V decays at 2c between arrivals, and the expected V jump at arrival k is
    # at most (sigma2 + e_{k-1}) / (n0 + k), below (sigma2 + max e) / k, with
    # e = E|m1 - m|^2 = E W - E V
    spec = gp.EnvelopeSpec(
        decay_rate=2.0 * config.kernel.a,
        y0=v[0],
        jump_bound=gp.HarmonicScaled(c=sigma2 + float(np.max(w - v))),
    )
    ns = (50, 200, 1000)
    z_star = _z_star(len(ns))
    details, exact_ok, band_ok = [], True, True
    for n in ns:
        i = _post_jump_row(slow, n)
        bound = gp.envelope_bound(spec, config.schedule, n)
        details.append(f"n={n}: {v[i]:.4f} <= {bound:.4f}")
        exact_ok = exact_ok and v[i] <= bound
        band_ok = band_ok and slow.mean_v[i] <= bound + z_star * slow.stderr_v[i]
    _line("variance envelope", exact_ok and band_ok, ", ".join(details))
    assert exact_ok
    assert band_ok


# ---------------------------------------------------------------------------
# 9. arrival-sum identities: moments of sums of i.i.d. arrivals
# ---------------------------------------------------------------------------

def test_arrival_sum_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(90)
    mean, sigma2 = 0.7, 0.9
    source = gp.gaussian_source(mean, sigma2)
    x0 = np.array([0.2, 1.1, -0.4])
    n0 = len(x0)
    draws = 10**4
    details = []
    ok = True
    for k in (2, 5, 20):
        # the arrivals one at a time, k per row: one call draws them in that order
        xs = _draw_incoming(source, rng, draws * k)[:, 0].reshape(draws, k)
        block = xs[:, :-1].sum(axis=1) - (k - 1) * xs[:, -1]
        sq = block**2
        cross = (x0.sum() - n0 * xs[:, -1]) * block
        for samples, target in ((sq, k * (k - 1) * sigma2),
                                (cross, n0 * (k - 1) * sigma2)):
            err = samples.std(ddof=1) / np.sqrt(draws)
            z = (samples.mean() - target) / err
            details.append(f"k={k}: z={z:+.1f}")
            ok = ok and abs(samples.mean() - target) <= 5 * err
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < IDENTITY_BUDGET_S
    _line("arrival-sum identities", ok, ", ".join(details) + f", {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 10. identical seeds reproduce byte-identical CSV output, any worker count
# ---------------------------------------------------------------------------

def test_bytewise_reproducibility(tmp_path, decay_run, jump_audit_run, mean_dev_ensemble):
    def emit(obj, name):
        path = tmp_path / name
        emit_series_csv(obj, str(path))
        return path.read_bytes()

    same = []
    for label, (series, _), config, seed in (
        ("fixed-population run", decay_run, _decay_config(), DECAY_SEED),
        ("arrival audit run", jump_audit_run, _jump_audit_config(), JUMP_AUDIT_SEED),
    ):
        rerun = gp.run_simulation(config, seed=seed)
        same.append((label, emit(series, "a.csv") == emit(rerun, "b.csv")))

    stats, _ = mean_dev_ensemble  # computed with WORKERS workers
    serial = gp.run_ensemble(_mean_dev_config(), runs=MEAN_DEV_RUNS,
                             master_seed=MEAN_DEV_SEED, workers=1)
    eight = gp.run_ensemble(_mean_dev_config(), runs=MEAN_DEV_RUNS,
                            master_seed=MEAN_DEV_SEED, workers=8)
    ref = emit(stats, "e4.csv")
    same.append(("ensemble 1 worker", emit(serial, "e1.csv") == ref))
    same.append(("ensemble 8 workers", emit(eight, "e8.csv") == ref))

    ok = all(flag for _, flag in same)
    _line("bytewise reproducibility", ok,
          ", ".join(f"{label}: {'=' if flag else '!='}" for label, flag in same))
    for label, flag in same:
        assert flag, f"{label} output differs"


# ---------------------------------------------------------------------------
# 11. founders off the source mean: the founders' S(0) and the offset A of
#     their sum enter the exact expectations, and the ensemble follows them
# ---------------------------------------------------------------------------

OFF_MEAN_RUNS = 2000
OFF_MEAN_SEED = 77


def _off_mean_config() -> gp.SimConfig:
    sched = gp.PowerExponentialSchedule(alpha=0.5, n0=4)
    return gp.SimConfig(
        dim=2,
        kernel=gp.constant_kernel(0.3),
        schedule=sched,
        source=gp.uniform_source((0.5, -0.25), 1.0),
        initial_opinions=np.array([[3.0, 1.0], [2.0, -1.5], [4.0, 0.5], [1.0, 2.0]]),
        max_agents=54,
        record_grid=gp.geometric_record_grid(0.1, gp.injection_time(sched, 50), 24),
    )


def test_off_mean_founders_match_exact_expectations():
    config = _off_mean_config()
    stats = gp.run_ensemble(config, runs=OFF_MEAN_RUNS, master_seed=OFF_MEAN_SEED)
    x0, source = config.initial_opinions, config.source
    # the founders are spread (S(0) > 0), and their sum is off n0 m (A > 0)
    assert np.ptp(x0, axis=0).min() > 0.0
    assert gp.expected_m1_deviation(4, 0, x0, source.mean_vector, source.sigma2) > 0.0
    v, w = gp.expected_moments(config)
    # before the first arrival every replica holds the same opinions
    before = np.arange(stats.grid.size) < stats.event.index("post_jump")
    z_star = _z_star(2 * int((~before).sum()))
    worst_rel, worst_z = 0.0, 0.0
    for mean, err, exact in ((stats.mean_v, stats.stderr_v, v), (stats.mean_w, stats.stderr_w, w)):
        worst_rel = max(worst_rel, float(np.max(np.abs(exact[before] / mean[before] - 1.0))))
        worst_z = max(worst_z, float(np.max(np.abs(mean[~before] - exact[~before])
                                            / err[~before])))
    ok = worst_rel <= 1e-12 and worst_z <= z_star
    _line("off-mean founders", ok, f"before arrivals: max rel err {worst_rel:.1e}; after: "
          f"max |z| {worst_z:.2f} <= {z_star:.2f} over {int((~before).sum())} rows")
    assert worst_rel <= 1e-12
    assert worst_z <= z_star


# ---------------------------------------------------------------------------
# 12. the paper's algebraic rate, exactly: E V tracks the quasi-static
#     rho sigma^2 / (2c + rho), rho = d(ln N)/dt = alpha t^(-beta)
# ---------------------------------------------------------------------------

def _rate_ratio(alpha: float, n: int) -> float:
    """r(n) = E V (2c + rho) / (rho sigma^2) right after the n-th agent joins:
    n0 = 10 founders at the mean, c = 1, sigma^2 = 1, rho = alpha t^(-beta) with
    beta = 1 - alpha."""
    sched = gp.PowerExponentialSchedule(alpha=alpha, n0=10)
    config = gp.SimConfig(dim=1, kernel=gp.constant_kernel(1.0), schedule=sched,
                          source=gp.gaussian_source(0.0, 1.0),
                          initial_opinions=np.zeros((10, 1)), max_agents=n)
    v, _ = gp.expected_moments(config)
    beta = 1.0 - alpha
    rho = alpha * gp.injection_time(sched, n - 10) ** -beta
    return float(v[-1]) * (2.0 + rho) / rho


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 1.5])
def test_exact_consensus_rate(alpha):
    r3, r4 = _rate_ratio(alpha, 10**3), _rate_ratio(alpha, 10**4)
    ok = abs(r4 - 1.0) <= 1e-2 and abs(r4 - 1.0) < abs(r3 - 1.0)
    _line(f"exact consensus rate (alpha {alpha})", ok, f"r(1e3)={r3:.5f}, r(1e4)={r4:.5f}")
    assert abs(r4 - 1.0) <= 1e-2
    assert abs(r4 - 1.0) < abs(r3 - 1.0)
