#!/usr/bin/env bash
# Committed performance trajectory of the end-to-end benchmark.
#
# Runs perfbench/run.py for every workload in BENCHMARK.json at seeds
# 101-110 and summarises each end-to-end metric as the median and the
# interquartile range of the ten runs, plus the operations that failed.
# Under its own key, "wall_clock", an entry also keeps the median and IQR
# of ops_per_wall_s (simulated operations per real second, the
# simulator's CPU cost), read from the per-layer table perfbench prints:
#
#   scripts/bench_trajectory.sh --entry N     # write BENCH_N.json
#   scripts/bench_trajectory.sh --check       # compare with the newest entry
#
# Options: --seconds S (per run, default BENCHMARK.json's run_seconds),
# --jobs J (runs at once, default 2). Wall-clock metrics (setup_s,
# peak_rss_mib) depend on the machine and on --jobs; record and check on
# the same machine with the same options.
#
# `--check` re-runs the benchmark with the newest committed BENCH_*.json's
# seeds and seconds and fails when a workload's median moved in its worse
# direction by more than the metric's BENCHMARK.json bound, when a run
# reports itself incorrect, or when more operations failed than recorded.
# It prints the old and new ops_per_wall_s but never fails on it: the
# value depends on the host and on --jobs. An entry without the key (such
# as BENCH_32.json) shows "-" for the old value.
set -euo pipefail

cd "$(dirname "$0")/.."

mode="record"
entry=""
seconds=""
jobs=2
while [[ $# -gt 0 ]]; do
  case "$1" in
    --check) mode="check"; shift ;;
    --entry) entry="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --jobs) jobs="$2"; shift 2 ;;
    *)
      echo "usage: scripts/bench_trajectory.sh (--entry N | --check)" \
           "[--seconds S] [--jobs J]" >&2
      exit 2
      ;;
  esac
done
if [[ "$mode" == "record" && ! "$entry" =~ ^[0-9]+$ ]]; then
  echo "bench_trajectory: --entry N (a number) or --check is required" >&2
  exit 2
fi
if [[ -n "$seconds" && ! "$seconds" =~ ^[1-9][0-9]*$ ]]; then
  echo "bench_trajectory: --seconds must be a positive integer" >&2
  exit 2
fi
if [[ ! "$jobs" =~ ^[1-9][0-9]*$ ]]; then
  echo "bench_trajectory: --jobs must be a positive integer" >&2
  exit 2
fi

# Build once, so that the parallel runs below only run.
python3 -c 'import sys; sys.path.insert(0, "perfbench"); import run; run.build()'

exec python3 - "$mode" "$entry" "$seconds" "$jobs" <<'EOF'
import concurrent.futures
import glob
import json
import re
import statistics
import subprocess
import sys

mode, entry, seconds, jobs = sys.argv[1:5]
jobs = int(jobs)
with open("BENCHMARK.json") as f:
    bench = json.load(f)
workloads = [w["name"] for w in bench["workloads"]]
bounds = {m["name"]: m for m in bench["end_to_end"]}
seeds = list(range(101, 111))

baseline = None
if mode == "check":
    entries = [(int(m.group(1)), p) for p in glob.glob("BENCH_*.json")
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", p))]
    if not entries:
        sys.exit("bench_trajectory: no BENCH_*.json to check against")
    newest = max(entries)[1]
    with open(newest) as f:
        baseline = json.load(f)
    seeds = baseline["seeds"]
    seconds = seconds or str(baseline["seconds"])
seconds = int(seconds or bench["run_seconds"])


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        # run.py rebuilds first: a source edited during the runs makes the
        # parallel runs rebuild at once.
        sys.exit("bench_trajectory: %s seed %d exited %d\n%s"
                 % (workload, seed, out.returncode,
                    "\n".join(out.stderr.splitlines()[-10:])))
    # The readable per-layer table precedes the JSON line on untraced runs.
    wall = None
    for line in lines[:-1]:
        if (m := re.match(r"\s+ops_per_wall_s\s+(\S+)\s", line)):
            wall = float(m.group(1))
    if wall is None:
        sys.exit("bench_trajectory: %s seed %d printed no ops_per_wall_s"
                 % (workload, seed))
    result = json.loads(lines[-1])
    result["ops_per_wall_s"] = wall
    return workload, seed, result


with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
    results = list(pool.map(lambda ws: run(*ws),
                            [(w, s) for w in workloads for s in seeds]))


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1}


fresh = {"seconds": seconds, "seeds": seeds, "workloads": {}}
incorrect = []
for w in workloads:
    runs = [r for (rw, _, r) in results if rw == w]
    incorrect += ["%s seed %d" % (w, s) for (rw, s, r) in results
                  if rw == w and not r["correct"]]
    metrics = {}
    for name in bounds:
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r["metrics"]]
        if len(values) == len(runs):
            metrics[name] = summary(values)
    fresh["workloads"][w] = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
        "wall_clock": {
            "ops_per_wall_s": summary([r["ops_per_wall_s"] for r in runs])},
    }

if mode == "record":
    path = "BENCH_%s.json" % entry
    with open(path, "w") as f:
        json.dump(fresh, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote " + path)
    sys.exit(1 if incorrect else 0)

failed = ["incorrect run: " + r for r in incorrect]
for w in workloads:
    old = baseline["workloads"].get(w)
    new = fresh["workloads"][w]
    if old is None:
        print("%-18s not in %s" % (w, newest))
        continue
    if new["failed"] > old["failed"]:
        failed.append("%s: %d failed operations, %d recorded"
                      % (w, new["failed"], old["failed"]))
    for name, spec in bounds.items():
        if name not in old["metrics"] or name not in new["metrics"]:
            continue
        before = old["metrics"][name]["median"]
        after = new["metrics"][name]["median"]
        if before == 0:
            worse = after > 0 if spec["better"] == "lower" else False
            change = 0.0
        else:
            change = (after - before) / abs(before)
            worse = (change > spec["bound"] if spec["better"] == "lower"
                     else -change > spec["bound"])
        verdict = "WORSE" if worse else "ok"
        print("%-18s %-20s %14.4f -> %14.4f  %+7.2f%%  (bound %g%%) %s"
              % (w, name, before, after, 100 * change,
                 100 * spec["bound"], verdict))
        if worse:
            failed.append("%s %s" % (w, name))
    old_wall = old.get("wall_clock", {}).get("ops_per_wall_s")
    new_wall = new["wall_clock"]["ops_per_wall_s"]
    print("%-18s %-20s %14s -> %14.1f  (IQR %s -> %.1f; host-dependent, "
          "not gated)"
          % (w, "ops_per_wall_s",
             "-" if old_wall is None else "%.1f" % old_wall["median"],
             new_wall["median"],
             "-" if old_wall is None else "%.1f" % old_wall["iqr"],
             new_wall["iqr"]))
if failed:
    print("bench_trajectory: against %s: %s" % (newest, "; ".join(failed)))
    sys.exit(1)
print("bench_trajectory: no median worse than its bound against " + newest)
EOF
