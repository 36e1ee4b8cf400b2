"""Seed derivation, arrival sampling, and reproducible parallel ensembles."""

import contextlib
import dataclasses
import io
import itertools
import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growpop import (
    EnsembleStats,
    ExplicitSchedule,
    OpinionSource,
    PowerExponentialSchedule,
    SimConfig,
    SimState,
    compute_moments,
    constant_kernel,
    derive_run_seed,
    ensemble_statistic,
    expected_m1_deviation,
    expected_moments,
    gaussian_source,
    integrate_interval,
    rational_kernel,
    run_ensemble,
    run_simulation,
    uniform_source,
)
from growpop import dynamics, montecarlo
from growpop.cli import emit_series_csv
from growpop.sources import _draw_incoming

MASK64 = (1 << 64) - 1


def mix64_reference(z):
    """Vectorized uint64 twin of the scalar mixing finalizer (wrapping is
    the point, so overflow warnings are silenced)."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_run_seed(42, 7) == derive_run_seed(42, 7)

    def test_in_64_bit_range(self):
        for master in (0, 1, 2**63, MASK64):
            for idx in (0, 1, 1000):
                s = derive_run_seed(master, idx)
                assert 0 <= s <= MASK64

    def test_matches_vectorized_twin(self):
        idx = np.arange(500, dtype=np.uint64)
        master = 12345
        base = mix64_reference(np.uint64(master))
        weyl = np.uint64(0x9E3779B97F4A7C15)
        with np.errstate(over="ignore"):
            expected = mix64_reference(base + (idx + np.uint64(1)) * weyl)
        got = np.array([derive_run_seed(master, int(i)) for i in range(500)],
                       dtype=np.uint64)
        np.testing.assert_array_equal(got, expected)

    def test_no_collisions_across_runs(self):
        seeds = {derive_run_seed(0, i) for i in range(20_000)}
        assert len(seeds) == 20_000

    def test_no_collisions_across_masters(self):
        seeds = {derive_run_seed(m, 0) for m in range(20_000)}
        assert len(seeds) == 20_000

    def test_grid_of_masters_and_runs_distinct(self):
        seeds = {derive_run_seed(m, i) for m in range(150) for i in range(150)}
        assert len(seeds) == 150 * 150

    def test_validation(self):
        with pytest.raises(ValueError):
            derive_run_seed(0.5, 0)
        with pytest.raises(ValueError):
            derive_run_seed(0, -1)
        # 64-bit mixing would fold these onto the seeds of 0, 2**64 - 1 and run 0
        for master, index, name in ((2**64, 0, "master_seed"), (-1, 0, "master_seed"),
                                    (5, 2**64, "run_index")):
            with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
                derive_run_seed(master, index)
        assert derive_run_seed(2**64 - 1, 2**64 - 1) != derive_run_seed(2**64 - 1, 0)


class TestOpinionSourceChecksItself:
    # a source built directly, not through a factory, is checked too: an
    # unknown kind would draw another family's law, and a negative sigma2
    # would fail only at the first draw, with a message that names nothing
    @pytest.mark.parametrize("kind,mean,sigma2,field", [
        ("bogus", (0.0,), 1.0, "kind"), ("gaussian", (0.0,), -1.0, "sigma2"),
        ("uniform", (0.0,), math.inf, "sigma2"), ("gaussian", (math.nan,), 1.0, "mean"),
        ("gaussian", (), 1.0, "mean")],
        ids=["unknown-kind", "negative-sigma2", "infinite-sigma2", "nan-mean", "empty-mean"])
    def test_rejects_bad_fields_naming_them(self, kind, mean, sigma2, field):
        with pytest.raises(ValueError, match=rf"^{field} must"):
            OpinionSource(kind, mean, sigma2)

    def test_stores_a_tuple_of_floats(self):
        assert OpinionSource("gaussian", 0.0, 1.0) == gaussian_source(0.0, 1.0)
        source = OpinionSource("two_point", np.array([1, 2]), 3)
        assert source == OpinionSource("two_point", (1.0, 2.0), 3.0)
        assert {type(v) for v in (*source.mean, source.sigma2)} == {float}


class TestSampling:
    def draw(self, source, n, seed=0):
        return _draw_incoming(source, np.random.default_rng(seed), n)

    @pytest.mark.parametrize("make", [
        lambda: gaussian_source((0.5, -1.0), 0.8),
        lambda: uniform_source((0.5, -1.0), 0.8),
        lambda: OpinionSource("two_point", (0.5, -1.0), 0.8),
    ])
    def test_mean_and_spread_match_parameters(self, make):
        source = make()
        n = 50_000
        xs = self.draw(source, n, seed=11)
        m = np.array([0.5, -1.0])
        dev2 = np.einsum("ij,ij->i", xs - m, xs - m)
        # 5-sigma Monte Carlo bands; the floor covers statistics that are
        # deterministic for a given source (two-point spread, say)
        for coord in range(2):
            half = 5.0 * xs[:, coord].std(ddof=1) / np.sqrt(n)
            assert abs(xs[:, coord].mean() - m[coord]) <= half + 1e-12
        half = 5.0 * dev2.std(ddof=1) / np.sqrt(n)
        assert abs(dev2.mean() - 0.8) <= half + 1e-12

    def test_two_point_support(self):
        source = OpinionSource("two_point", 1.0, 0.49)
        xs = self.draw(source, 500, seed=3).ravel()
        assert set(np.round(xs, 12)) == {0.3, 1.7}  # 1 -+ 0.7

    def test_uniform_support_bounds(self):
        source = uniform_source(0.0, 3.0)  # half-width sqrt(3 * 3 / 1) = 3
        xs = self.draw(source, 2000, seed=4).ravel()
        assert xs.min() > -3.0 and xs.max() < 3.0
        assert xs.min() < -2.5 and xs.max() > 2.5  # actually fills the range

    def test_zero_variance_is_exact_point_mass(self):
        for kind in ("gaussian", "uniform", "two_point"):
            source = OpinionSource(kind, (0.25, 0.75), 0.0)
            xs = self.draw(source, 50, seed=5)
            assert np.all(xs == np.array([0.25, 0.75]))

    def test_one_draw_per_arrival(self):
        # consuming one stream in two interleavings gives the same arrivals
        source = gaussian_source(0.0, 1.0)
        a = _draw_incoming(source, np.random.default_rng(77), 6)
        rng = np.random.default_rng(77)
        b = [_draw_incoming(source, rng, 1)[0] for _ in range(6)]
        np.testing.assert_array_equal(a, np.array(b))


    @pytest.mark.parametrize("kind", ["gaussian", "uniform", "two_point"],
                             ids=lambda kind: f"{kind}_source")
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_a_run_draws_what_single_draws_drew(self, kind, dim):
        # a run's (K, d) draw equals K draws made one at a time with the
        # generator calls below, so every seed keeps its arrivals
        source = OpinionSource(kind, np.linspace(-0.5, 0.5, dim), 0.9)
        rng = np.random.default_rng(31)
        one_at_a_time = []
        for _ in range(500):
            x = source.mean_vector.copy()
            if kind == "gaussian":
                x += rng.normal(0.0, math.sqrt(0.9 / dim), size=dim)
            elif kind == "uniform":
                half = math.sqrt(3.0 * 0.9 / dim)
                x += rng.uniform(-half, half, size=dim)
            else:
                x[0] += math.sqrt(0.9) if rng.integers(0, 2) == 1 else -math.sqrt(0.9)
            one_at_a_time.append(x)
        block = _draw_incoming(source, np.random.default_rng(31), 500)
        assert block.tobytes() == np.array(one_at_a_time).tobytes()


def ensemble_config(**overrides):
    base = dict(
        dim=1,
        kernel=constant_kernel(1.0),
        schedule=PowerExponentialSchedule(alpha=0.5, n0=2),
        source=gaussian_source(0.0, 1.0),
        initial_opinions=np.array([[0.5], [-0.5]]),
        step_max=0.05,
        max_agents=12,
        record_grid=(0.5, 1.0),
    )
    base.update(overrides)
    return SimConfig(**base)


class TestRunEnsemble:
    def test_negative_master_seed_is_refused(self):
        with pytest.raises(ValueError, match=r"^master_seed must be an integer >= 0, got -1$"):
            run_ensemble(ensemble_config(), 3, -1)

    def test_shapes_and_tags(self):
        stats = run_ensemble(ensemble_config(), runs=4, master_seed=1)
        rows = stats.grid.size
        assert stats.runs == 4 and stats.master_seed == 1
        assert len(stats.event) == rows and stats.k.size == rows
        for name in ("mean_w", "stderr_w", "mean_v", "stderr_v",
                     "mean_m1_dev", "stderr_m1_dev"):
            assert getattr(stats, name).shape == (rows,)
        assert stats.event[0] == "record" and stats.grid[0] == 0.0
        assert stats.event.count("pre_jump") == 10
        assert stats.event.count("post_jump") == 10

    def test_deterministic_and_worker_count_invariant(self):
        config = ensemble_config()
        a = run_ensemble(config, runs=6, master_seed=3, workers=1)
        b = run_ensemble(config, runs=6, master_seed=3, workers=1)
        c = run_ensemble(config, runs=6, master_seed=3, workers=3)
        for other in (b, c):
            np.testing.assert_array_equal(a.mean_w, other.mean_w)
            np.testing.assert_array_equal(a.stderr_w, other.stderr_w)
            np.testing.assert_array_equal(a.mean_v, other.mean_v)
            np.testing.assert_array_equal(a.mean_m1_dev, other.mean_m1_dev)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_its_single_runs(self, dim, workers):
        # the reduction, row by row, of the runs replayed one by one
        mean = np.linspace(-0.5, 0.75, dim)
        config = ensemble_config(
            dim=dim, source=gaussian_source(mean, 1.0), max_agents=60,
            initial_opinions=np.linspace(-1.0, 1.0, 2 * dim).reshape(2, dim))
        runs, master = 4, 21
        stats = run_ensemble(config, runs=runs, master_seed=master, workers=workers)
        series = [run_simulation(config, derive_run_seed(master, i)) for i in range(runs)]
        dev = [[float((row.record.m1 - mean) @ (row.record.m1 - mean)) for row in s.rows]
               for s in series]
        scale = 1.0 / math.sqrt(runs)
        for values, mean_name, err_name in (
            ([s.w for s in series], "mean_w", "stderr_w"),
            ([s.v for s in series], "mean_v", "stderr_v"),
            (dev, "mean_m1_dev", "stderr_m1_dev"),
        ):
            values = np.array(values)
            np.testing.assert_array_equal(getattr(stats, mean_name), values.mean(axis=0))
            np.testing.assert_array_equal(getattr(stats, err_name),
                                          values.std(axis=0, ddof=1) * scale)

    def test_master_seed_changes_results(self):
        config = ensemble_config()
        a = run_ensemble(config, runs=4, master_seed=0)
        b = run_ensemble(config, runs=4, master_seed=1)
        assert not np.array_equal(a.mean_w, b.mean_w)

    def test_zero_variance_ensemble_is_degenerate(self):
        config = ensemble_config(
            source=gaussian_source(0.0, 0.0),
            initial_opinions=np.zeros((2, 1)),
        )
        stats = run_ensemble(config, runs=3, master_seed=5)
        assert np.all(stats.mean_w == 0.0)
        assert np.all(stats.stderr_w == 0.0)
        assert np.all(stats.mean_v == 0.0)

    def test_single_run_rejected(self):
        with pytest.raises(ValueError, match="runs"):
            run_ensemble(ensemble_config(), runs=1, master_seed=0)

    def test_package_import_loads_no_process_pool(self):
        # the pool's modules (multiprocessing, socket, logging) cost about 15 ms
        # per interpreter; only an ensemble of more than one block needs them,
        # so a constant-kernel ensemble, one block whatever ``workers``, loads none
        import growpop

        src = os.path.dirname(os.path.dirname(os.path.abspath(growpop.__file__)))
        code = ("import sys, growpop, growpop.cli\n"
                "def pool():\n"
                "    print(sorted(m for m in sys.modules if m.split('.')[0] == "
                "'multiprocessing' or m == 'concurrent.futures.process'))\n"
                "pool()\n"
                "config = growpop.SimConfig(dim=1, kernel=growpop.constant_kernel(1.0), "
                "schedule=growpop.PowerExponentialSchedule(alpha=0.5, n0=2), "
                "source=growpop.gaussian_source(0.0, 1.0), initial_opinions=[[0.5], [-0.5]], "
                "max_agents=12)\n"
                "growpop.run_ensemble(config, 4, 1, workers=2)\n"
                "pool()\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.splitlines() == ["[]", "[]"]

    def test_mean_deviation_matches_exact_expectation(self):
        # E |m1 - m|^2 after arrival k has a closed form; 5-sigma band
        config = ensemble_config(max_agents=10, record_grid=())
        runs = 400
        stats = run_ensemble(config, runs=runs, master_seed=9)
        exact = expected_m1_deviation(2, 8, config.initial_opinions,
                                      np.zeros(1), 1.0)
        mean, err = ensemble_statistic(stats, "m1_dev", at_k=8)
        assert abs(mean - exact) < 5.0 * err


def replicas_of(config, runs, master, workers):
    """The ensemble's statistics, its CSV text, and the (runs, rows) columns w, v
    and m1 of its blocks, captured from ``montecarlo._blocks`` and joined in
    run-index order."""
    results = []
    blocks = montecarlo._blocks

    def recorded(tasks, workers):
        for result in blocks(tasks, workers):
            results.append(result)
            yield result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_blocks", recorded)
        stats = run_ensemble(config, runs=runs, master_seed=master, workers=workers)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        emit_series_csv(stats, None)
    w, v, m1 = (np.concatenate(blocks) for blocks in zip(*results))
    return stats, text.getvalue(), w, v, m1


class TestBlockInvariance:
    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(runs=st.sampled_from([2, 7, 100]), workers=st.sampled_from([2, 3]),
           dim=st.integers(1, 3), kind=st.sampled_from(["constant", "rational"]),
           source_kind=st.sampled_from(["gaussian", "uniform", "two_point"]),
           master=st.integers(0, 2**64 - 1))
    def test_replica_is_its_single_run(self, runs, workers, dim, kind, source_kind, master):
        # replica i, in a block of any size at any worker count, is
        # run_simulation under derive_run_seed(master, i), bit for bit
        if kind == "constant":
            kernel, n0, arrivals, alpha = constant_kernel(1.3), 2, 12, 0.5
        else:  # small N: the particle path costs O(N^2) per force
            kernel, n0, arrivals, alpha = rational_kernel(0.5, 0.5), 2, 3, 1.5
        config = ensemble_config(
            dim=dim, kernel=kernel, schedule=PowerExponentialSchedule(alpha=alpha, n0=n0),
            source=OpinionSource(source_kind, np.linspace(-0.5, 0.75, dim), 1.0),
            max_agents=n0 + arrivals,
            initial_opinions=np.linspace(-1.0, 1.0, n0 * dim).reshape(n0, dim),
            record_grid=(0.25, 0.5, 1.0))
        serial = replicas_of(config, runs, master, workers=1)
        pooled = replicas_of(config, runs, master, workers=workers)
        assert serial[1] == pooled[1]  # CSV text, so bytes too
        singles = [run_simulation(config, derive_run_seed(master, i)) for i in range(runs)]
        for i, single in enumerate(singles):
            for _, _, w, v, m1 in (serial, pooled):
                assert w[i].tobytes() == single.w.tobytes()
                assert v[i].tobytes() == single.v.tobytes()
                assert m1[i].tobytes() == single.m1.tobytes()
        # each statistic is that of the single runs' columns stacked in C
        # order, whatever the layout a block returns them in
        diff = np.stack([s.m1 for s in singles]) - config.source.mean_vector
        scale = 1.0 / math.sqrt(runs)
        for values, name in ((np.stack([s.w for s in singles]), "w"),
                             (np.stack([s.v for s in singles]), "v"),
                             ((diff[..., None, :] @ diff[..., :, None])[..., 0, 0], "m1_dev")):
            for stats in (serial[0], pooled[0]):
                assert getattr(stats, f"mean_{name}").tobytes() == values.mean(axis=0).tobytes()
                assert getattr(stats, f"stderr_{name}").tobytes() == (
                    values.std(axis=0, ddof=1) * scale).tobytes()


class TestReplicaFailures:
    @pytest.mark.parametrize("perturb", [
        lambda rec: dataclasses.replace(rec, v=rec.v * (1.0 + 1e-9)),
        lambda rec: dataclasses.replace(rec, m1=rec.m1 + 1e-9)], ids=["v", "m1"])
    def test_audit_mismatch_names_the_replica(self, monkeypatch, perturb):
        # one block holds the 5 runs and its audits take them in turn, so the
        # third audit is on run 2
        audits = []
        compute_moments = dynamics.compute_moments

        def perturbed(opinions, kernel, m, t):
            rec = compute_moments(opinions, kernel, m, t)
            audits.append(t)
            return perturb(rec) if len(audits) == 3 else rec

        monkeypatch.setattr(dynamics, "compute_moments", perturbed)
        config = ensemble_config(record_grid=(0.5, 1.0, 1.5, 2.0))
        seed = derive_run_seed(4, 2)
        with pytest.raises(RuntimeError, match=rf"ensemble run 2 \(seed {seed}\) failed: audit"):
            run_ensemble(config, runs=5, master_seed=4, workers=1)
        assert len(audits) == 3

    def test_every_replica_is_audited(self, monkeypatch):
        # 7 runs in one block, 2 grid records: the records audit runs 0 and 1
        # in turn, and the last row audits all 7
        audited = []
        audit = dynamics._audit
        monkeypatch.setattr(dynamics, "_audit",
                            lambda *args: audited.append(args[2]) or audit(*args))
        run_ensemble(ensemble_config(), runs=7, master_seed=3, workers=1)
        assert audited == [0, 1] + list(range(7))

    @pytest.mark.parametrize("kernel", [constant_kernel(1.0), rational_kernel(0.5, 0.5)],
                             ids=["constant", "rational"])
    def test_non_finite_moment_names_the_replica(self, monkeypatch, kernel):
        # run 3's second arrival is nan; with no grid only the last row is
        # audited, on every run of the block
        bad_seed = derive_run_seed(6, 3)
        draw, draws = dynamics._draw_incoming, []

        def draw_nan(source, rng, count):
            draws.append(draw(source, rng, count))
            if len(draws) == 4:  # run 3's arrivals
                draws[-1][1] = np.nan
            return draws[-1]

        monkeypatch.setattr(dynamics, "_draw_incoming", draw_nan)
        config = ensemble_config(kernel=kernel, record_grid=())
        with np.errstate(invalid="ignore"), pytest.raises(
                RuntimeError, match=rf"ensemble run 3 \(seed {bad_seed}\) failed"):
            run_ensemble(config, runs=5, master_seed=6, workers=1)

    @pytest.mark.parametrize("kernel", [constant_kernel(1.0), rational_kernel(0.5, 0.5)],
                             ids=["constant", "rational"])
    def test_config_fault_raises_before_any_block(self, monkeypatch, kernel):
        # 10**17 arrivals do not fit in memory: the config's fault, not a run's
        def no_blocks(tasks, workers):
            raise AssertionError("blocks started for a config with no timeline")

        config = ensemble_config(kernel=kernel, max_agents=10**17)
        with pytest.raises(ValueError) as want:
            run_simulation(config, 0)
        assert str(want.value).startswith("the arrivals up to t_end = ")
        monkeypatch.setattr(montecarlo, "_blocks", no_blocks)
        with pytest.raises(ValueError) as got:
            run_ensemble(config, runs=4, master_seed=8, workers=2)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("kernel", [constant_kernel(1.0), rational_kernel(0.5, 0.5)],
                             ids=["constant", "rational"])
    def test_timeline_is_built_once_per_ensemble(self, monkeypatch, kernel):
        calls, timeline = [], montecarlo._timeline

        def counted(config):
            calls.append(config)
            return timeline(config)

        def refused(config):
            raise AssertionError("a block built its own timeline")

        monkeypatch.setattr(montecarlo, "_timeline", counted)
        monkeypatch.setattr(dynamics, "_timeline", refused)
        config = ensemble_config(kernel=kernel)
        run_ensemble(config, runs=3, master_seed=8, workers=1)
        assert calls == [config]

    def test_other_failure_names_the_block(self, monkeypatch):
        def fail(config, tl, seeds):
            raise ValueError("no replica to blame")

        monkeypatch.setattr(montecarlo, "_run_block", fail)
        seeds = ", ".join(str(derive_run_seed(8, i)) for i in range(3))
        with pytest.raises(RuntimeError, match=rf"ensemble runs 0-2 \(seeds {seeds}\) failed: no"):
            run_ensemble(ensemble_config(), runs=3, master_seed=8, workers=1)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched engine reaches the workers only through fork")
    def test_dead_worker_names_its_runs(self, monkeypatch):
        # every worker dies; the first block in run order, runs 0-3, is reported
        # (the rational kernel's ensembles are the ones that use workers)
        monkeypatch.setattr(montecarlo, "_run_block", lambda config, tl, seeds: os._exit(1))
        seeds = ", ".join(str(derive_run_seed(8, i)) for i in range(4))
        config = ensemble_config(kernel=rational_kernel(0.5, 0.5))
        with pytest.raises(RuntimeError, match=rf"ensemble runs 0-3 \(seeds {seeds}\) lost"):
            run_ensemble(config, runs=8, master_seed=8, workers=2)


@pytest.fixture(scope="module")
def stats():
    return run_ensemble(ensemble_config(), runs=5, master_seed=2)


class TestEnsembleStatistic:
    def test_initial_record(self, stats):
        mean, err = ensemble_statistic(stats, "v", at_k=0)
        # V(0) is deterministic: var of the fixed initial opinions
        assert mean == 0.25 and err == 0.0

    def test_post_jump_lookup(self, stats):
        idx = [i for i, (ev, kk) in enumerate(zip(stats.event, stats.k))
               if ev == "post_jump" and kk == 4][0]
        mean, err = ensemble_statistic(stats, "w", at_k=4)
        assert mean == stats.mean_w[idx] and err == stats.stderr_w[idx]

    def test_unknown_statistic(self, stats):
        with pytest.raises(ValueError, match="unknown statistic"):
            ensemble_statistic(stats, "m3", at_k=0)

    def test_missing_arrival(self, stats):
        with pytest.raises(ValueError, match="no arrival"):
            ensemble_statistic(stats, "v", at_k=999)

    def test_is_the_scan_of_every_row(self):
        # records before the first arrival, between arrivals, on an arrival
        # time (2.0, dropped for the pre/post pair) and after the last one
        config = ensemble_config(schedule=ExplicitSchedule(n0=2, times=(1.0, 2.0, 3.0)),
                                 max_agents=None, horizon=4.0,
                                 record_grid=(0.25, 0.5, 1.25, 1.5, 2.0, 3.5, 4.0))
        stats = run_ensemble(config, runs=4, master_seed=5)
        rows = list(zip(stats.event, stats.k.tolist()))
        assert rows[:3] == [("record", 0)] * 3 and ("record", 1) in rows
        assert rows[-2:] == [("record", 3)] * 2
        assert 2.0 not in stats.grid[np.array(stats.event) == "record"]

        def scan(which, at_k):
            # the row every event string is scanned for
            idx = 0 if at_k == 0 else [i for i, row in enumerate(rows)
                                       if row == ("post_jump", at_k)][0]
            mean, err = (getattr(stats, f"{part}_{which}")[idx] for part in ("mean", "stderr"))
            return float(mean), float(err)

        for which in ("w", "v", "m1_dev"):
            for at_k in range(4):
                assert ensemble_statistic(stats, which, at_k) == scan(which, at_k), (which, at_k)
            with pytest.raises(ValueError, match="no arrival with index 4"):
                ensemble_statistic(stats, which, 4)


class TestExpectedMoments:
    def test_is_the_average_over_every_two_point_draw(self):
        # d = 2 two-point arrivals m +/- u: the 2^5 equally likely sequences of
        # five arrivals, each replayed through the exact particle flow from
        # founders off the source mean, average to the exact E V and E W
        mean, sigma2 = np.array([0.3, -0.2]), 0.5
        config = ensemble_config(
            dim=2, kernel=constant_kernel(0.7), schedule=ExplicitSchedule(
                n0=3, times=(0.5, 0.9, 1.6, 2.0, 2.2)),
            source=OpinionSource("two_point", mean, sigma2),
            initial_opinions=np.array([[1.0, 0.4], [-0.4, 1.5], [2.0, -0.5]]),
            max_agents=None, horizon=2.5, record_grid=(0.25, 1.2, 2.5))
        rows = run_simulation(config, 0).rows
        u = np.array([math.sqrt(sigma2), 0.0])
        total = np.zeros((len(rows), 2))
        for signs in itertools.product((1.0, -1.0), repeat=5):
            state = SimState(t=0.0, k=0, opinions=config.initial_opinions, dim=2)
            for i, row in enumerate(rows):
                if row.event == "post_jump":
                    x = np.vstack([state.opinions, mean + signs[row.k - 1] * u])
                    state = SimState(t=state.t, k=state.k + 1, opinions=x, dim=2)
                else:
                    state = integrate_interval(state, config.kernel, row.record.t)
                rec = compute_moments(state.opinions, config.kernel, mean, state.t)
                total[i] += rec.v, rec.w
        v, w = expected_moments(config)
        np.testing.assert_allclose(v, total[:, 0] / 32, rtol=1e-12)
        np.testing.assert_allclose(w, total[:, 1] / 32, rtol=1e-12)

    def test_a_deterministic_run_is_its_own_expectation(self):
        # sigma2 = 0: every arrival lands on the mean, so each replica is the one
        # run; before the first arrival V is the engine's, bit for bit
        config = ensemble_config(dim=2, source=gaussian_source((0.5, -1.0), 0.0),
                                 initial_opinions=np.array([[2.0, 1.0], [-1.0, 0.5]]),
                                 record_grid=(0.2, 0.5, 1.0, 3.0))
        series = run_simulation(config, 4)
        v, w = expected_moments(config)
        np.testing.assert_allclose(v, series.v, rtol=1e-12)
        np.testing.assert_allclose(w, series.w, rtol=1e-12)
        before = series.n == 2
        np.testing.assert_array_equal(v[before], series.v[before])

    def test_rational_kernel_at_b_0_is_the_constant_kernel(self):
        want = expected_moments(ensemble_config(kernel=constant_kernel(0.8)))
        got = expected_moments(ensemble_config(kernel=rational_kernel(0.8, 0.0)))
        for a, b in zip(want, got):
            assert a.tobytes() == b.tobytes()

    def test_other_kernels_are_refused(self):
        with pytest.raises(ValueError, match="constant kernel"):
            expected_moments(ensemble_config(kernel=rational_kernel(0.5, 0.5)))
