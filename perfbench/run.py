#!/usr/bin/env python3
"""End-to-end benchmark of the CPI2 loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet|storm|loopback|all \
        [--seed N] [--seconds S] [--trace 0|1]

Builds the perfbench binary from source (perfbench/CMakeLists.txt, which
pulls in ../src) into $CARGO_TARGET_DIR, default .bench_build, then runs the
workload in a process of its own so set-up time and peak RSS belong to it.
The binary's human-readable report is passed through; the last line of
standard output is one JSON object:

    {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json with --trace 0, and every
per_layer metric with --trace 1 (a layer the workload does not exercise
reads 0). Exits 1 if a correctness check fails, 2 if the benchmark could
not be built or run. `--workload all` runs the three workloads one after
another and prints one JSON line each.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet", "storm", "loopback")
DEFAULT_SEED = 2
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"{ROOT}/src is missing; the benchmark builds the program from source")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:
            shutil.rmtree(build_dir)  # configured from another source tree
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench")


def run_workload(binary, bench, workload, seed, seconds, trace):
    """Runs one workload; returns its exit code after printing the JSON line."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(".bench_out", exist_ok=True)
        cmd += ["--spans", os.path.join(".bench_out", f"{workload}-seed{seed}.spans.tsv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode not in (0, 1):
        sys.stdout.write(done.stdout)
        fail(f"{workload} exited with code {done.returncode}")

    produced, checks, counts = {}, [], {}
    for line in done.stdout.splitlines():
        print(line)
        parts = line.split(" ", 3)
        if parts[0] == "METRIC" and len(parts) == 4:
            produced[parts[1]] = (float(parts[2]), parts[3])
        elif parts[0] == "CHECK" and len(parts) >= 3:
            checks.append((parts[1], parts[2] == "pass"))
        elif parts[0] == "COUNT" and len(parts) == 3:
            counts[parts[1]] = int(parts[2])

    correct = done.returncode == 0 and bool(checks) and all(ok for _, ok in checks)
    metrics = {}
    for spec in bench["per_layer" if trace else "end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        if name in produced:
            value, got_unit = produced[name]
            if got_unit != unit:
                print(f"perfbench: {name} reported in {got_unit}, declared {unit}",
                      file=sys.stderr)
                correct = False
        elif trace:
            value = 0.0  # layer not exercised by this workload
        else:
            print(f"perfbench: {workload} did not report {name}", file=sys.stderr)
            correct, value = False, 0.0
        metrics[name] = {"value": value, "unit": unit}
    for name, ok in checks:
        if not ok:
            print(f"perfbench: check {name} failed", file=sys.stderr)
    if "attempted" not in counts or "failed" not in counts:
        correct = False
    print(json.dumps({"correct": correct, "attempted": max(1, counts.get("attempted", 0)),
                      "failed": counts.get("failed", 0), "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if seconds < 1:
        fail("--seconds must be at least 1")
    binary = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        status = max(status, run_workload(binary, bench, workload, args.seed, seconds,
                                          args.trace))
    return status


if __name__ == "__main__":
    sys.exit(main())
