#!/usr/bin/env python3
"""Steadiness self-check of the psa benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--seed0 1]

Runs perfbench/run.py once per seed (seed0, seed0+1, ...) on each workload
and prints, for every end-to-end metric, the median of the runs and the
distance between the first and third quartile as a share of that median.
It exits 1 unless every run is correct and every spread, setup_s's too,
stays within the metric's bound in BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    steady = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.seed0, args.seed0 + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: INCORRECT {result}")
                steady = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            ok = spread <= m["bound"]
            steady = steady and ok
            print(f"{workload:12s} {m['name']:12s} median {med:10.4f} "
                  f"spread {spread:7.4f} bound {m['bound']:.2f} "
                  f"{'ok' if ok else 'WIDE'}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
