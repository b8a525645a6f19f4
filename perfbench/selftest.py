#!/usr/bin/env python3
"""Determinism self-test for the end-to-end benchmark.

    python3 perfbench/selftest.py

For every workload it builds the driver (as run.py does) and checks that:
  * two runs with the same seed give identical values for every sim-time
    and count metric, end-to-end and per-layer (wall-clock metrics —
    setup_s, peak_rss_mib, ops_per_wall_s, call_wall_ns.*, the traced-phase
    self times and trace.overhead_ratio — are excluded: they are measured,
    not simulated);
  * a different seed changes the operation sequence, yet keeps every
    latency class at >= 1000 samples with no failed operation.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build step)

WALL_METRICS = ("setup_s", "peak_rss_mib", "ops_per_wall_s",
                "trace.overhead_ratio")
WALL_PATTERNS = (".call_wall_ns.", ".self_sim_us_per_op",
                 "trace.unattributed_sim_us_per_op")


def simulated(name):
    return name not in WALL_METRICS and not any(
        p in name for p in WALL_PATTERNS)


def drive(workload, seed, trace):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    if out.returncode != 0:
        sys.exit("FAIL %s seed %d: driver exited %d"
                 % (workload, seed, out.returncode))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    samples = next(l for l in lines if l.startswith("samples:"))
    counts = [int(tok) for tok in samples.split()[2::2]]
    values = {k: v["value"] for k, v in result["metrics"].items()
              if simulated(k)}
    return result, counts, values


def check(ok, message):
    if not ok:
        sys.exit("FAIL " + message)


def main():
    run.build()
    for workload in run.WORKLOADS:
        for trace in (1, 0):
            first, counts, a = drive(workload, 11, trace)
            _, counts_again, b = drive(workload, 11, trace)
            check(a == b and counts == counts_again,
                  "%s trace=%d: same seed, different sim metrics: %s" % (
                      workload, trace,
                      {k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}))
            check(first["correct"] and first["failed"] == 0,
                  "%s trace=%d: failed operations" % (workload, trace))
        other, other_counts, c = drive(workload, 12, 0)
        check(c != a or other_counts != counts,
              "%s: seeds 11 and 12 ran the same operations" % workload)
        check(other["correct"] and other["failed"] == 0,
              "%s seed 12: failed operations" % workload)
        check(min(other_counts) >= 1000,
              "%s seed 12: a latency class has < 1000 samples: %s"
              % (workload, other_counts))
        print("ok  %-18s samples read/update/meta %s" % (workload,
                                                         other_counts))
    print("selftest passed")


if __name__ == "__main__":
    main()
