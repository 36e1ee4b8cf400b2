"""Spans around the package's public functions, recorded from outside it.

``Tracer.installed()`` replaces every public function of each ``growpop``
module (the names in its ``__all__`` that it defines), plus
``Kernel.eval_squared``, by a wrapper at every place a caller looks it up:
the defining module, every other package module that imported the name, and
the package namespace. Each call records one span (name, start, end, parent)
in memory; nothing is written until the run ends. The package's source is
not touched and the originals are restored on exit.

A span's self time is its duration minus the durations of its direct
children. Self times therefore add up to the duration of the root spans, and
``check_accounting`` compares that total with the wall time of the traced
region: a shortfall means time spent outside every wrapped call.

Time in a call that bypasses its wrappers is not lost that way: it adds to
the self time of the wrapped caller. ``Tracer.audit`` catches such a call.
It runs one iteration with the wrappers installed and a profile hook that
counts every entry into an original function, and fails if a function was
entered more often than its wrapper recorded a span.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import Counter

import numpy as np

MODULES = ("kernels", "schedules", "sources", "observables", "dynamics",
           "montecarlo", "analysis", "cli")

# Share of the traced wall time that the root spans must cover.
ACCOUNTING_MIN_SHARE = 0.98

_NAME, _START, _END, _PARENT, _COUNT = range(5)


def _arg(fn, name: str):
    """Reads argument ``name`` of a call to ``fn`` from (args, kwargs)."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments[name]


def _counters(pkg) -> dict:
    """Work counted per call, for the spans whose work varies by call."""
    sum_terms = _arg(pkg.analysis.condition_sum, "n")
    envelope_terms = _arg(pkg.analysis.envelope_bound, "n")
    csv_path = _arg(pkg.cli.emit_series_csv, "path")
    return {
        # pair weights evaluated: the size of the squared-distance argument
        "kernels.eval_squared": lambda args, kwargs: int(np.size(args[1])),
        "analysis.condition_sum": sum_terms,
        "analysis.envelope_bound": envelope_terms,
        "cli.emit_series_csv": lambda args, kwargs: os.path.getsize(csv_path(args, kwargs)),
    }


class Tracer:
    """Records spans around package calls while installed."""

    def __init__(self):
        import growpop.cli  # noqa: F401  (loads every module of the package)

        self._pkg = importlib.import_module("growpop")
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._counters = _counters(self._pkg)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = self._counters.get(name)

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[_END] = clock()
            if count is not None:
                span[_COUNT] = count(args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def _targets(self):
        """(span name, owner, attribute, function) for every wrapped call site."""
        pkg = self._pkg
        mods = [importlib.import_module(f"growpop.{m}") for m in MODULES]
        sites = [pkg] + mods
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    for site in sites:
                        if site.__dict__.get(attr) is fn:
                            yield f"{short}.{attr}", site, attr, fn
        yield "kernels.eval_squared", pkg.Kernel, "eval_squared", pkg.Kernel.eval_squared

    @contextlib.contextmanager
    def installed(self):
        wrappers, patched = {}, []
        try:
            for name, owner, attr, fn in list(self._targets()):
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, fn)
                setattr(owner, attr, wrappers[name])
                patched.append((owner, attr, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(patched):
                setattr(owner, attr, fn)
            self._stack.clear()

    def audit(self, fn):
        """Calls ``fn()`` traced; raises if an original ran outside its wrapper."""
        names = {f.__code__: name for name, _, _, f in self._targets()}
        entered = Counter()

        def count_entries(frame, event, arg):
            if event == "call" and frame.f_code in names:
                entered[names[frame.f_code]] += 1

        first = len(self.spans)
        with self.installed():
            sys.setprofile(count_entries)
            try:
                out = fn()
            finally:
                sys.setprofile(None)
        recorded = Counter(span[_NAME] for span in self.spans[first:])
        missed = {name: n - recorded[name] for name, n in entered.items() if n != recorded[name]}
        if missed:
            raise AccountingError(f"calls that no wrapper recorded: {missed}; a call site of "
                                  "the package is not wrapped")
        return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[_PARENT] >= 0:
            child[span[_PARENT]] += span[_END] - span[_START]
    return [span[_END] - span[_START] - child[i] for i, span in enumerate(spans)]


class AccountingError(RuntimeError):
    """Span self times do not add up to the traced wall time."""


def check_accounting(spans, wall_s: float) -> float:
    """Share of ``wall_s`` covered by span self times; raises if it is off."""
    share = sum(self_times(spans)) / wall_s
    if not ACCOUNTING_MIN_SHARE <= share <= 1.0 + 1e-9:
        raise AccountingError(
            f"span self times cover {share:.4f} of the traced wall time; expected "
            f"[{ACCOUNTING_MIN_SHARE}, 1]: time was spent outside every package call")
    return share


CALLS = ("kernels.eval_squared", "observables.compute_moments",
         "observables.dissipation_of", "dynamics.inject_agent", "sources.sample_incoming",
         "schedules.injection_time", "analysis.condition_sum", "analysis.dawson_f")
SELF_S = ("kernels.eval_squared", "observables.compute_moments",
          "observables.dissipation_of", "dynamics.run_simulation", "dynamics.inject_agent",
          "sources.sample_incoming", "schedules.injection_time", "montecarlo.run_ensemble",
          "cli.load_config", "cli.emit_series_csv", "analysis.condition_sum",
          "analysis.classify_schedule", "analysis.envelope_bound", "analysis.dawson_f")


def metric_units() -> dict:
    """Name and unit of every figure ``layer_metrics`` reports, in order."""
    units = {}
    for mod in MODULES:
        units[f"{mod}.self_s"] = "s"
        units[f"{mod}.spans"] = "count"
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update({f"{name}.self_s": "s" for name in SELF_S})
    units.update({
        "kernels.eval_squared.elems": "count",
        "kernels.eval_squared.mb_computed": "MB",
        "analysis.condition_sum.terms": "count",
        "cli.csv_bytes": "B",
        "montecarlo.replicas": "count",
        "montecarlo.replica_s.p50": "s",
        "montecarlo.replica_s.max": "s",
    })
    return units


def layer_metrics(spans) -> dict:
    """Per-function and per-module figures of one traced iteration.

    Every figure is reported on every workload, as 0 where its function did
    not run, so that the zero controls show in the output.
    """
    own = self_times(spans)
    calls, self_s, counts = {}, {}, {}
    for span, s in zip(spans, own):
        name = span[_NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
        counts[name] = counts.get(name, 0) + span[_COUNT]

    out = {}
    for mod in MODULES:
        names = [n for n in calls if n.split(".", 1)[0] == mod]
        out[f"{mod}.self_s"] = sum(self_s[n] for n in names)
        out[f"{mod}.spans"] = sum(calls[n] for n in names)
    out.update({f"{name}.calls": calls.get(name, 0) for name in CALLS})
    out.update({f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_S})
    elems = counts.get("kernels.eval_squared", 0)
    out["kernels.eval_squared.elems"] = elems
    out["kernels.eval_squared.mb_computed"] = elems * 16 / 1e6  # computed: 8 B in, 8 B out
    out["analysis.condition_sum.terms"] = counts.get("analysis.condition_sum", 0)
    out["cli.csv_bytes"] = counts.get("cli.emit_series_csv", 0)

    # replica wall times: simulations called directly by an ensemble, grouped
    # by ensemble call, since each call (one alpha) has its own distribution
    replicas = {}
    for span in spans:
        parent = span[_PARENT]
        if (span[_NAME] == "dynamics.run_simulation" and parent >= 0
                and spans[parent][_NAME] == "montecarlo.run_ensemble"):
            replicas.setdefault(parent, []).append(span[_END] - span[_START])
    times = list(replicas.values())
    out["montecarlo.replicas"] = sum(len(t) for t in times)
    out["montecarlo.replica_s.p50"] = (
        statistics.median(statistics.median(t) for t in times) if times else 0.0)
    out["montecarlo.replica_s.max"] = max((max(t) for t in times), default=0.0)
    return out


def median_metrics(per_iteration: list[dict]) -> dict:
    """Metric-wise median over traced iterations; counts repeat exactly."""
    out = {}
    for key in per_iteration[0]:
        values = [m[key] for m in per_iteration]
        out[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
