"""Self-tests of the benchmark itself.

Run from the repository root (about 15 s):

    python3 perfbench/selftest.py

They show that a perturbed output drives the error rate above zero on every
workload, that the span arithmetic of the traced run is exact, and that the
speed gauge scales times as documented and stops its processes.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import growpop  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def error_rate(wl, outputs: dict) -> float:
    return len(workloads.failed_ops(outputs, wl.check(outputs))) / len(outputs)


class PerturbedOutputsFail(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.workdir = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def test_jump_off_by_1e_9(self):
        wl = workloads.Pairwise(3, self.workdir, arrivals=40)
        outputs = wl.iterate()
        self.assertEqual(error_rate(wl, outputs), 0.0)
        pairs = outputs["run_simulation"].injection_pairs
        post = pairs[7].post
        pairs[7] = dataclasses.replace(pairs[7], post=dataclasses.replace(post, m2=post.m2 + 1e-9))
        self.assertGreater(error_rate(wl, outputs), 0.0)

    def test_mean_drift_between_arrivals(self):
        wl = workloads.Pairwise(3, self.workdir, arrivals=40)
        outputs = wl.iterate()
        rows = outputs["run_simulation"].rows
        i = next(i for i, row in enumerate(rows) if row.event == "pre_jump" and row.k == 20)
        rec = rows[i].record
        rows[i] = rows[i]._replace(record=dataclasses.replace(rec, m1=rec.m1 + 1e-9))
        self.assertGreater(error_rate(wl, outputs), 0.0)

    def test_ensemble_csv_with_one_byte_changed(self):
        wl = workloads.Regime(3, self.workdir, replicas=3)
        self.assertEqual(error_rate(wl, wl.iterate(workers=1)), 0.0)
        outputs = wl.iterate(workers=2)
        path = wl.paths[0.5][1]
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        self.assertTrue(chr(data[-2]).isdigit())
        data[-2] = ord("1") if data[-2] != ord("1") else ord("2")
        with open(path, "wb") as fh:
            fh.write(data)
        self.assertGreater(error_rate(wl, outputs), 0.0)

    def test_wrong_classification_and_envelope(self):
        wl = workloads.Conditions(3, self.workdir)
        outputs = wl.iterate()
        self.assertEqual(error_rate(wl, outputs), 0.0)
        op = "conditions alpha=1.5"
        outputs[op] = outputs[op].replace("fails_c2", "converges_c1")
        outputs["envelope_bound"] *= 1.0 + 1e-9
        failed = workloads.failed_ops(outputs, wl.check(outputs))
        self.assertEqual(failed, {op, "envelope_bound"})

    def test_raising_operation_counts_as_failed(self):
        outputs = {}
        workloads.attempt(outputs, "boom", growpop.condition_sum, -1.0, [0.0], 1)
        self.assertEqual(workloads.failed_ops(outputs, {}), {"boom"})


def _span(name, start, end, parent):
    return [name, float(start), float(end), parent, 0]


class SpanArithmetic(unittest.TestCase):
    # root [0, 10] holds [1, 4] (which holds [2, 3]) and [5, 9]; a second
    # root [12, 14] follows
    SPANS = [
        _span("cli.cmd_dispatch", 0, 10, -1),
        _span("dynamics.run_simulation", 1, 4, 0),
        _span("observables.compute_moments", 2, 3, 1),
        _span("dynamics.run_simulation", 5, 9, 0),
        _span("analysis.dawson_f", 12, 14, -1),
    ]

    def test_self_times_are_exact(self):
        self.assertEqual(tracing.self_times(self.SPANS), [3.0, 2.0, 1.0, 4.0, 2.0])

    def test_module_and_function_totals(self):
        m = tracing.layer_metrics(self.SPANS)
        self.assertEqual(m["cli.self_s"], 3.0)
        self.assertEqual(m["dynamics.self_s"], 6.0)
        self.assertEqual(m["dynamics.spans"], 2)
        self.assertEqual(m["dynamics.run_simulation.self_s"], 6.0)
        self.assertEqual(m["observables.compute_moments.calls"], 1)
        self.assertEqual(m["analysis.dawson_f.self_s"], 2.0)
        self.assertEqual(m["montecarlo.spans"], 0)
        self.assertEqual(m["montecarlo.replicas"], 0)
        self.assertEqual(set(m), set(tracing.metric_units()))

    def test_accounting(self):
        self.assertEqual(tracing.check_accounting(self.SPANS, 12.0), 1.0)
        with self.assertRaises(tracing.AccountingError):
            tracing.check_accounting(self.SPANS, 14.0)  # two seconds seen by no span

    def test_replica_times_per_ensemble(self):
        # two ensembles: replicas of 1..5 s, then of 10, 20 and 90 s
        spans = [_span("montecarlo.run_ensemble", 0, 20, -1)]
        spans += [_span("dynamics.run_simulation", 0, i, 0) for i in range(1, 6)]
        spans.append(_span("montecarlo.run_ensemble", 100, 300, -1))
        spans += [_span("dynamics.run_simulation", 100, 100 + d, 6) for d in (10, 20, 90)]
        m = tracing.layer_metrics(spans)
        self.assertEqual(m["montecarlo.replicas"], 8)
        self.assertEqual(m["montecarlo.replica_s.p50"], 11.5)  # median of 3 and 20
        self.assertEqual(m["montecarlo.replica_s.max"], 90.0)


class SpeedGauge(unittest.TestCase):
    def test_scale(self):
        nominal = speed.NOMINAL_S
        self.assertEqual(speed.scale(2.0, nominal, nominal), 2.0)
        self.assertAlmostEqual(speed.scale(2.0, 1.5 * nominal, 2.5 * nominal), 1.0, places=15)

    def test_parallel_gauge_reads_and_stops(self):
        gauge = speed.Gauge(2)
        procs = [proc for proc, _ in gauge._workers]
        self.assertEqual(len({proc.pid for proc in procs}), 2)
        self.assertGreater(gauge.read(), 0.0)
        gauge.close()
        self.assertFalse(any(proc.is_alive() for proc in procs))


class TracerCallSites(unittest.TestCase):
    def test_wraps_every_call_site_and_restores(self):
        original = growpop.analysis.condition_sum
        eval_squared = growpop.Kernel.eval_squared
        tracer = tracing.Tracer()
        with tracer.installed():
            self.assertIsNot(growpop.cli.condition_sum, original)
            self.assertIs(growpop.cli.condition_sum, growpop.analysis.condition_sum)
            growpop.classify_schedule(0.5, 0.4, 1.6, n_max=10_000)
            state = growpop.SimState(t=0.0, k=0, opinions=np.zeros((7, 2)), dim=2)
            growpop.rhs(state, growpop.rational_kernel(0.5, 0.5))
        self.assertIs(growpop.cli.condition_sum, original)
        self.assertIs(growpop.analysis.condition_sum, original)
        self.assertIs(growpop.Kernel.eval_squared, eval_squared)

        names = [span[0] for span in tracer.spans]
        self.assertEqual(names[0], "analysis.classify_schedule")
        sums = [span for span in tracer.spans if span[0] == "analysis.condition_sum"]
        self.assertTrue(sums and all(span[3] == 0 for span in sums))
        self.assertEqual(sum(span[4] for span in sums),
                         sum(int(n) for n in np.unique(np.geomspace(10, 10_000, 12).astype(int))))
        kernel = [span for span in tracer.spans if span[0] == "kernels.eval_squared"]
        self.assertEqual([span[4] for span in kernel], [49])
        self.assertEqual(kernel[0][3], names.index("dynamics.rhs"))

    def test_audit_passes_when_every_site_is_wrapped(self):
        tracer = tracing.Tracer()
        with tempfile.TemporaryDirectory() as workdir:
            wl = workloads.Regime(3, workdir, replicas=2)
            outputs = tracer.audit(lambda: wl.iterate(workers=1))
            self.assertEqual(error_rate(wl, outputs), 0.0)
            self.assertIn("observables.compute_moments", [span[0] for span in tracer.spans])

    def test_audit_catches_an_unwrapped_call_site(self):
        class MissesOneSite(tracing.Tracer):
            # leaves analysis's own global condition_sum, which
            # classify_schedule calls, unwrapped
            def _targets(self):
                return [t for t in super()._targets()
                        if not (t[0] == "analysis.condition_sum" and t[1] is growpop.analysis)]

        tracer = MissesOneSite()
        with self.assertRaisesRegex(tracing.AccountingError, "analysis.condition_sum"):
            tracer.audit(lambda: growpop.classify_schedule(0.5, 0.4, 1.6, n_max=10_000))


if __name__ == "__main__":
    unittest.main()
