#!/usr/bin/env python3
"""Runs one workload of the facility's end-to-end benchmark.

    python3 perfbench/run.py --workload hot_read_fanout --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (the facility's libraries from src/ plus the driver in
perfbench.cc) into .bench_build/ at the repository root, then runs the
driver. Build output goes to stderr; the driver's readable table and, as
the last line of stdout, its JSON result go to stdout. With --trace 1 the
benchmark's own per-call spans are also written to
.bench_build/spans-<workload>-<seed>.jsonl.

Workloads and metrics are described in perfbench/LAYERS.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("hot_read_fanout", "sharded_mixed_io", "txn_ledger")
# The driver itself stays well inside this; a hung run is killed.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("facility sources (src/) not found beside perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail("driver exited with code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver's result has unexpected keys")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
