#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's metrics.

Run from the root of a checkout:

    python3 hostbench/spread.py --runs 10 [--trace 0] [--seconds 30] [workload ...]

For each workload (default: all in BENCHMARK.json) it runs hostbench/run.py
once per seed 1..runs and prints, for every metric, the median of the runs
and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, then each run's value.
With --trace 0 it also prints each end-to-end metric's bound and whether the
spread stays below a third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("hostbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for wl in args.workloads:
        runs = [run_once(wl, seed, args.seconds, args.trace) for seed in range(1, args.runs + 1)]
        print(f"{wl}: {args.runs} runs, seeds 1..{args.runs}, {args.seconds}s, trace {args.trace}")
        for name in sorted(runs[0]):
            vals = [r[name] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            line = f"  {name:26s} median {med:<14.6g} spread {spread:7.2%}"
            if name in bounds:
                ok = "ok" if spread < bounds[name] / 3 else "WIDE"
                line += f"  bound {bounds[name]:.2f} ({ok})"
            print(line, flush=True)
            print("    runs " + " ".join(f"{v:.6g}" for v in vals), flush=True)


if __name__ == "__main__":
    main()
