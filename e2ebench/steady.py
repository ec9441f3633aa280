#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly, one seed per run, and
prints for every end-to-end metric the median, the quartiles and the
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json,
plus the share of failed operations of every run.

    python3 e2ebench/steady.py --runs 10 [--workload text_open ...]
                               [--first-seed 1] [--seconds S] [--trace]

Run from the repository root. A spread at or below a third of its bound
is steady; BENCHMARK.json's bounds are set from this output. With
--trace the runs are traced and the table shows the unbounded e2e.*
metrics (latency, peak rate, CPU per query) instead.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    if args.trace:
        bounds = {m["name"]: None for m in spec["per_layer"]
                  if m["name"].startswith("e2e.")}
    else:
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        shares = []
        walls = []
        for i in range(args.runs):
            start = time.monotonic()
            result = run_once(workload, args.first_seed + i, args.seconds,
                              args.trace)
            walls.append(time.monotonic() - start)
            if not result["correct"]:
                steady = False
                print("%s seed %d: correct=false" %
                      (workload, args.first_seed + i))
            shares.append((result["failed"], result["attempted"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("\n%s (%d runs, seeds %d..%d)" %
              (workload, args.runs, args.first_seed,
               args.first_seed + args.runs - 1))
        print("  %-26s %12s %12s %12s %8s %8s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            mark = ""
            if bound is not None:
                if spread > bound / 3:
                    mark = "  <-- above bound/3"
                if name != "setup_s" and spread > bound:
                    steady = False
            print("  %-26s %12.5g %12.5g %12.5g %8.4f %8s%s" %
                  (name, q1, med, q3, spread,
                   "-" if bound is None else "%.3f" % bound, mark))
        print("  failed/attempted per run: %s" %
              ", ".join("%d/%d" % s for s in shares))
        print("  wall seconds per run: %s" %
              ", ".join("%.1f" % w for w in walls))
        if len({failed / attempted for failed, attempted in shares}) != 1:
            steady = False
            print("  failed share differs between runs")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
