#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload served_mixed --runs 10 [--first-seed 1]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
and prints, per end-to-end metric, the median, the quartile spread
(Q3 - Q1 of statistics.quantiles(values, n=4), as a share of the
median) and the bound from BENCHMARK.json. A benchmark is steady when
every spread except setup_s's stays below its bound; aim for a third.
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
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit("run with seed %d failed (exit %d)" % (seed, out.returncode))
        result = json.loads(out.stdout.strip().split("\n")[-1])
        if not result["correct"]:
            sys.stderr.write(out.stdout)
            sys.exit("run with seed %d reported incorrect output" % seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)

    print("%-18s %14s %8s %6s" % ("metric", "median", "spread", "bound"))
    for metric in spec["end_to_end"]:
        v = values[metric["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread <= metric["bound"] / 3 else "  <-- above bound/3"
        print("%-18s %14.6g %8.4f %6.2f%s" % (metric["name"], med, spread,
                                            metric["bound"], flag))


if __name__ == "__main__":
    main()
