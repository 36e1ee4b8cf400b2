"""Runs the benchmark over several seeds and records the figures.

Run from the repository root:

    python3 perfbench/record.py --label seed --seeds 1-10

Each (seed, workload) pair is one fresh ``run.py`` process, seeds in the
outer loop so that slow spells of the machine spread over all workloads.
Every end-to-end metric is summarised by its median, its quartiles
(``statistics.quantiles(values, n=4)``) and the distance between them as a
share of the median (the spread), next to the metric's bound in
BENCHMARK.json. One traced run per workload, on the first seed, adds the
per-layer figures. The result goes to ``perfbench/results/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line plus the process's wall time, environment line) of one run."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True, timeout=200, cwd=ROOT)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{out.stderr}")
    if out.stderr:
        print(out.stderr, file=sys.stderr, end="")
    result = json.loads(lines[-1])
    result["process_s"] = time.perf_counter() - t0
    return result, json.loads(lines[-2].removeprefix("env "))


def summarise(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    names = [w["name"] for w in manifest["workloads"]]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    seeds = _seeds(args.seeds)
    seconds = manifest["run_seconds"]

    results = {name: {"runs": []} for name in names}
    env = None
    for seed in seeds:
        for name in names:
            result, env = run_once(name, seed, seconds, 0)
            results[name]["runs"].append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)

    record = {"label": args.label, "env": env, "run_seconds": seconds, "seeds": seeds,
              "workloads": {}}
    for name in names:
        runs = results[name]["runs"]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "process_s": statistics.mean(r["process_s"] for r in runs),
            "end_to_end": {},
        }
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            entry["end_to_end"][metric] = dict(unit=runs[0]["metrics"][metric]["unit"],
                                               **summarise(values, bound))
        traced, _ = run_once(name, seeds[0], seconds, 1)
        entry["per_layer"] = traced["metrics"]
        entry["per_layer_correct"] = traced["correct"]
        record["workloads"][name] = entry

    print(f"\n{'workload':12s} {'metric':12s} {'median':>12s} {'unit':5s} {'spread':>8s} "
          f"{'bound':>6s}")
    for name, entry in record["workloads"].items():
        for metric, fig in entry["end_to_end"].items():
            # a spread above a third of the bound leaves little room for noise
            flag = "" if fig["spread"] < fig["bound"] / 3 else "  WIDE"
            print(f"{name:12s} {metric:12s} {fig['median']:12.5g} {fig['unit']:5s} "
                  f"{fig['spread']:8.4f} {fig['bound']:6.2f}{flag}")
        print(f"{name:12s} error_rate   {entry['failed']} of {entry['attempted']}; "
              f"{entry['process_s']:.1f} s per untraced run, whole process")

    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
