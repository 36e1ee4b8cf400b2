"""growpop benchmark: end-to-end times per workload, or a traced per-module run.

Run from the repository root:

    python3 perfbench/run.py --workload regime --seed 1 --seconds 20 --trace 0

``--trace 0`` builds the workload from the seed, runs one warm-up iteration
(discarded), then timed iterations for about ``--seconds``, checks every
output, measures set-up time in fresh interpreters, and prints the
end-to-end metrics. Their times are scaled to reference speed with a probe
timed around every interval (see speed.py); the raw medians are printed
too. ``--trace 1`` alternates untraced and traced iterations
with one worker and prints the per-layer metrics instead (see tracing.py).
Either way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the environment the figures were taken in.

``--write-benchmark-json`` regenerates BENCHMARK.json at the repository root
from the definitions below. The package is imported from ``src/`` next to
this directory, never from an installed copy.
"""

from __future__ import annotations

import os

# One thread per native pool (BLAS, OpenMP), set before numpy loads. Pool
# workers and set-up probes are child processes and inherit the setting, so
# an ensemble with two workers uses two cores, not 2 x the BLAS pool size.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

RUN_SECONDS = 20
MIN_ITERATIONS = 3   # timed iterations per untraced run, however long each takes
SETUP_PROBES = 11    # fresh interpreters timed per run for setup_s

# (name, unit, share of the parent's median by which it may worsen)
END_TO_END = (
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.24),
    ("work_per_s", "1/s", 0.24),
    ("cpu_s", "s", 0.24),
    ("peak_rss_mb", "MB", 0.1),
)

MICROBENCHMARKS = ("dynamics.rhs_us.constant", "dynamics.rk4_step_us.constant",
                   "dynamics.rhs_us.rational", "dynamics.rk4_step_us.rational")
TRACE_METRICS = {"trace.overhead_frac": "ratio", "trace.accounting_share": "ratio"}
HIGHER_IS_BETTER = {name: "higher" for name in (
    "work_per_s", "trace.accounting_share", "montecarlo.replicas")}


def _use_sources() -> None:
    """Puts src/ first on the path; the package must come from there."""
    if not os.path.isfile(os.path.join(SRC, "growpop", "__init__.py")):
        raise SystemExit(f"error: no growpop sources under {SRC}")
    sys.path.insert(0, SRC)


def _check_origin() -> None:
    import growpop

    if os.path.dirname(os.path.dirname(os.path.abspath(growpop.__file__))) != SRC:
        raise SystemExit(f"error: growpop was imported from {growpop.__file__}, not {SRC}")


def per_layer_units() -> dict:
    import tracing

    units = tracing.metric_units()
    units.update({name: "us" for name in MICROBENCHMARKS})
    units.update(TRACE_METRICS)
    return units


def write_benchmark_json() -> str:
    import workloads

    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": workloads.WORKLOADS[name].why}
                      for name in workloads.WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": HIGHER_IS_BETTER.get(n, "lower"),
                        "bound": b} for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": HIGHER_IS_BETTER.get(n, "lower")}
                      for n, u in per_layer_units().items()],
    }
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"  # not a git checkout of its own
    return lines[1]


def environment() -> dict:
    import multiprocessing
    import platform

    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "pool_start_method": multiprocessing.get_start_method(),
        "thread_pins": {var: os.environ[var] for var in THREAD_PINS},
    }


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def add(self, outputs: dict) -> None:
        import workloads

        failures = self.wl.check(outputs)
        bad = workloads.failed_ops(outputs, failures)
        self.attempted += len(outputs)
        self.failed += len(bad)
        for op in sorted(bad):
            if len(self.messages) < 10:
                out = outputs.get(op)
                detail = out.message if isinstance(out, workloads.OpError) else failures[op]
                self.messages.append(f"{op}: {detail}")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)  # pool workers, once joined
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _keep_going(count: int, minimum: int, start: float, last: float, seconds: float) -> bool:
    """Another iteration if under the minimum or if it should end within the budget."""
    return count < minimum or time.perf_counter() - start + last <= seconds


def measure(wl, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics of one workload (untraced), and the per-iteration figures.

    Wall and CPU times are scaled to reference speed with gauge readings
    taken between iterations (see speed.py); the raw times come back too.
    """
    import speed

    tally.add(wl.iterate())  # warm-up: checked and counted, not timed
    per_iteration = {"wall_s": [], "cpu_s": [], "raw_wall_s": [], "raw_cpu_s": [], "gauge_s": []}
    pin = speed.pinned() if wl.workers == 1 else contextlib.nullcontext()
    with pin, speed.Gauge(wl.workers) as gauge:
        reading = gauge.read()
        start = time.perf_counter()
        last = 0.0
        while _keep_going(len(per_iteration["wall_s"]), MIN_ITERATIONS, start, last, seconds):
            c0 = _cpu_s()
            t_loop = t0 = time.perf_counter()
            outputs = wl.iterate()
            wall = time.perf_counter() - t0
            cpu = _cpu_s() - c0
            tally.add(outputs)
            after = gauge.read()
            for name, value in (("wall_s", speed.scale(wall, reading, after)),
                                ("cpu_s", speed.scale(cpu, reading, after)),
                                ("raw_wall_s", wall), ("raw_cpu_s", cpu), ("gauge_s", after)):
                per_iteration[name].append(value)
            reading = after
            last = time.perf_counter() - t_loop
        # taken before the gauge's own processes end and count as children
        peak_kb = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    wall = statistics.median(per_iteration["wall_s"])
    return {
        "wall_s": wall,
        "work_per_s": wl.work / wall,
        "cpu_s": statistics.median(per_iteration["cpu_s"]),
        "peak_rss_mb": peak_kb / 1024.0,
    }, per_iteration


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time over fresh interpreters (import plus building inputs).

    Returns the median scaled to reference speed, then the raw median.
    """
    import speed

    scaled, raw = [], []
    with speed.pinned():  # the set-up probes run on the core the gauge reads
        reading = speed.probe()
        for _ in range(SETUP_PROBES):
            out = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                                  "--workload", workload, "--seed", str(seed)],
                                 capture_output=True, text=True, timeout=120, cwd=ROOT)
            if out.returncode != 0:
                raise SystemExit(f"error: set-up probe failed:\n{out.stderr}")
            after = speed.probe()
            raw.append(float(out.stdout.split()[-1]))
            scaled.append(speed.scale(raw[-1], reading, after))
            reading = after
    return statistics.median(scaled), statistics.median(raw)


def measure_traced(wl, seconds: float, seed: int, tally: Tally) -> dict:
    """Per-layer metrics: untraced and traced iterations alternate, one worker."""
    import tracing
    import workloads

    # Warm-up with one worker, so that this process (not a pool worker) has
    # run the code before the timed pairs; its outputs are the reference.
    tally.add(wl.iterate(workers=1))
    if wl.workers > 1:  # the untraced worker count must reproduce them
        tally.add(wl.iterate())
    # One untimed traced iteration proves that every call went through a wrapper.
    tally.add(tracing.Tracer().audit(lambda: wl.iterate(workers=1)))
    plain, traced, shares, per_iteration = [], [], [], []
    start = time.perf_counter()
    last = 0.0
    while _keep_going(len(traced), 1, start, last, seconds):
        t_pair = t0 = time.perf_counter()
        outputs = wl.iterate(workers=1)
        plain.append(time.perf_counter() - t0)
        tally.add(outputs)
        tracer = tracing.Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            outputs = wl.iterate(workers=1)
            wall = time.perf_counter() - t0
        tally.add(outputs)
        shares.append(tracing.check_accounting(tracer.spans, wall))
        per_iteration.append(tracing.layer_metrics(tracer.spans))
        traced.append(wall)
        last = time.perf_counter() - t_pair
    metrics = tracing.median_metrics(per_iteration)
    metrics.update(workloads.layer_microbenchmarks(seed))
    base = statistics.median(plain)
    metrics["trace.overhead_frac"] = (statistics.median(traced) - base) / base
    metrics["trace.accounting_share"] = min(shares)
    return metrics


def _setup_probe(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    import workloads

    workdir = tempfile.mkdtemp(dir=_scratch_root())
    try:
        workloads.WORKLOADS[workload](seed, workdir)
        print(time.perf_counter() - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _scratch_root() -> str:
    path = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(path, exist_ok=True)
    return path


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)

    _use_sources()
    if args.setup_probe:  # times the package import, so nothing imports it before
        _setup_probe(args.workload, args.seed)
        return 0
    _check_origin()
    if args.write_benchmark_json:
        print(write_benchmark_json())
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    workdir = tempfile.mkdtemp(dir=_scratch_root())
    os.environ["TMPDIR"] = workdir  # keep child processes' temporary files in the checkout
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tally = Tally(wl)
        if args.trace:
            metrics = measure_traced(wl, args.seconds, args.seed, tally)
            units = per_layer_units()
            print(f"{wl.name}: traced with one worker, seed {args.seed}")
        else:
            figures, per_iteration = measure(wl, args.seconds, tally)
            figures["setup_s"], raw_setup = measure_setup(args.workload, args.seed)
            units = {name: unit for name, unit, _ in END_TO_END}
            metrics = {name: figures[name] for name in units}
            walls = per_iteration["wall_s"]
            q1, _, q3 = statistics.quantiles(walls, n=4)
            print(f"{wl.name}: {len(walls)} timed iterations after one warm-up, seed {args.seed}; "
                  f"wall_s quartiles {q1:.6g} .. {q3:.6g} s; "
                  f"{wl.work_unit}_per_s = work_per_s ({wl.work} {wl.work_unit} per iteration)")
            print("raw medians, before scaling to reference speed: " + ", ".join(
                f"{name} {statistics.median(values):.6g} s" for name, values in per_iteration.items()
                if name.startswith("raw_") or name == "gauge_s") + f", raw_setup_s {raw_setup:.6g} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(_scratch_root())

    for name, value in metrics.items():
        print(f"  {name:40s} {_fmt(value):>14s} {units[name]}")
    error_rate = tally.failed / tally.attempted
    print(f"  {'error_rate':40s} {_fmt(error_rate):>14s} ({tally.failed} of "
          f"{tally.attempted} operations failed)")
    for message in tally.messages:
        print(f"failed: {message}", file=sys.stderr)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
