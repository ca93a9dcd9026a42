#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload ui_prefill --seeds 1-10 [--out runs.jsonl]

Runs perfbench/run.py once per seed (untraced, BENCHMARK.json's run_seconds)
from the current directory, then prints, per end-to-end metric, the median,
the quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median and the metric's bound. Each run's full output can be
appended to a JSON-lines file. perfbench/EVIDENCE.md records such runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="'1-10' or '1,4,9'")
    parser.add_argument("--out", help="append each run's output here")
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {}
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, universal_newlines=True)
        if done.returncode != 0:
            sys.exit("seed %d: run.py exited with %d" % (seed, done.returncode))
        lines = done.stdout.rstrip("\n").split("\n")
        result = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    "output": lines}) + "\n")
        print("seed %d: correct %s, attempted %d, failed %d"
              % (seed, result["correct"], result["attempted"],
                 result["failed"]), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("%-18s %12s %12s %12s %8s %6s" % ("metric", "median", "Q1", "Q3",
                                           "spread", "bound"))
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print("%-18s %12.6g %12.6g %12.6g %8.4f %6.2f"
              % (m["name"], med, q1, q3, spread, m["bound"]))


if __name__ == "__main__":
    main()
