#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The script configures and builds the
perfbench CMake package (perfbench/CMakeLists.txt, which builds the llmnpu
libraries from this checkout) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; an up-to-date build is a no-op. It then runs the
benchmark with the thread count pinned and prints its output, with the
binary's last line (metric values by name) turned into the result object:
the metrics BENCHMARK.json lists for the mode, in its order and with its
units. BENCHMARK.json is the only list of metrics. A missing end-to-end
metric or a name BENCHMARK.json does not list is an error; a per-layer
metric the workload does not exercise is reported as 0 and named in a note
line. The last line of standard output is the result object. Build output
goes to standard error. Any failure exits non-zero without a result line.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

# One fixed thread count at most nproc on any supported host. At the proxy
# model's size, 2-4 threads speed prefill up by at most 1.2x while letting
# other tenants' load on any core stall every parallel kernel call.
NUM_THREADS = "1"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(os.getcwd(), base)
    return os.path.join(base, "perfbench")


def build(out):
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(cmd))
            if done.returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def metric_specs(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return spec["per_layer" if trace else "end_to_end"]


def to_result(raw, trace):
    """The result object from the binary's last line, plus the names of the
    per-layer metrics it did not measure."""
    if sorted(raw) != ["attempted", "correct", "failed", "values"]:
        fail("binary result keys are %s" % sorted(raw))
    values = raw["values"]
    specs = metric_specs(trace)
    unknown = sorted(set(values) - {m["name"] for m in specs})
    if unknown:
        fail("metrics not in BENCHMARK.json: %s" % unknown)
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing and not trace:
        fail("end-to-end metrics not measured: %s" % missing)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in specs}
    return ({"correct": raw["correct"], "attempted": raw["attempted"],
             "failed": raw["failed"], "metrics": metrics}, missing)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(out, "spans")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    env = dict(os.environ, LLMNPU_NUM_THREADS=NUM_THREADS)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("benchmark exited with %d" % done.returncode)

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON")
    result, missing = to_result(raw, args.trace == "1")
    for line in lines[:-1]:
        print(line)
    if missing:
        print(json.dumps({"not_exercised_reported_as_0": missing}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
