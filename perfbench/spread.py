#!/usr/bin/env python3
"""Runs one workload under several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
        [--seconds 10] [--trace 0]

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json. Run it from the
repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {}
    spec = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if os.path.exists(spec):
        with open(spec) as f:
            for m in json.load(f).get("end_to_end", []):
                bounds[m["name"]] = m["bound"]

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d failed with code %d" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("%-28s %14s %9s %7s" % ("metric", "median", "iqr/med", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-28s %14.6g %9.4f %7s" % (name, med, spread,
                                          bounds.get(name, "-")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
