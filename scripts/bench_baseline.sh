#!/usr/bin/env bash
# Disk-efficiency regression gate.
#
# Every bench binary writes <binary>.metrics.json (the drained facility
# metrics). This script runs the I/O- and message-sensitive benches and
# snapshots the counters that measure disk and network efficiency —
# main and stable-storage references, arm travel, bus exchanges,
# writeback batches — into
# bench/baselines/<bench>.json:
#
#   scripts/bench_baseline.sh            # (re)record the baselines
#   scripts/bench_baseline.sh --check    # fail if any counter regressed >10%
#
# The baselines are committed: a change that makes the same workload issue
# more disk references or longer seeks than 1.10x the recorded value fails
# `--check` (which scripts/check.sh runs), so batching/elevator wins cannot
# silently rot. Lower is always better for these counters; improvements
# should be re-recorded, and `--check` marks a counter more than 10% below
# its baseline `IMPROVED (re-record)` (without failing), so a baseline that
# no longer matches the tree is visible.
#
# `--check` also fails when a bench reports a nonzero `sim.lane_conflicts`
# (a device referenced from two lanes of one overlapped section, which
# charges one device to two lanes at once). bench_read_fanout and
# bench_shard_scaling are exempt: their lanes pose as concurrent clients
# and share disks until the simulator models device occupancy.
set -euo pipefail

cd "$(dirname "$0")/.."

BENCHES=(bench_contiguous_read bench_track_cache bench_fault_recovery bench_striping bench_group_commit bench_basic_vs_txn bench_wal_vs_shadow bench_messages_per_op bench_client_cache bench_replica_faults bench_shard_scaling bench_callback_storm bench_snapshot bench_read_fanout bench_mixed_commit_basic)
KEYS=(disk.read_references disk.write_references disk.stable.write_references disk.tracks_seeked txn.log.forces bus.calls agent.writeback_batches replication.degraded_writes replication.hints_queued replication.read_repairs placement.lookups placement.reroutes file.callback_breaks agent.callback_renewals file.cow_blocks_copied agent.peer_serves file.redirects_issued)
LANE_CONFLICT_EXEMPT=(bench_read_fanout bench_shard_scaling)
BUILD=build
BASELINES=bench/baselines
TOLERANCE=1.10

mode="record"
if [[ "${1:-}" == "--check" ]]; then
  mode="check"
  shift
fi
if [[ $# -gt 0 ]]; then
  BENCHES=("$@")
fi

mkdir -p "$BASELINES"

extract() {
  # extract <metrics.json> <out.json> — pull the KEYS counters.
  python3 - "$1" "$2" "${KEYS[@]}" <<'EOF'
import json, sys
keys = sys.argv[3:]
with open(sys.argv[1]) as f:
    snap = json.load(f)
counters = snap.get("counters", {})
picked = {k: int(counters.get(k, 0)) for k in keys}
with open(sys.argv[2], "w") as f:
    json.dump(picked, f, indent=2, sort_keys=True)
    f.write("\n")
EOF
}

compare() {
  # compare <bench> <baseline.json> <current.json> — >10% worse fails,
  # >10% better is flagged for re-recording.
  python3 - "$1" "$2" "$3" <<'EOF'
import json, sys
bench, base_path, cur_path = sys.argv[1:4]
with open(base_path) as f:
    base = json.load(f)
with open(cur_path) as f:
    cur = json.load(f)
tolerance = 1.10
failed = False
for key, base_value in sorted(base.items()):
    value = cur.get(key, 0)
    limit = base_value * tolerance
    status = "ok"
    if base_value > 0 and value > limit:
        status = "REGRESSED"
        failed = True
    elif base_value == 0 and value > 0:
        status = "REGRESSED"
        failed = True
    elif value < base_value * (2 - tolerance):
        status = "IMPROVED (re-record)"
    print(f"  {bench}: {key} baseline={base_value} now={value} [{status}]")
if failed:
    sys.exit(1)
EOF
}

lane_conflicts() {
  # lane_conflicts <metrics.json> — the run's sim.lane_conflicts count.
  python3 - "$1" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    print(int(json.load(f).get("counters", {}).get("sim.lane_conflicts", 0)))
EOF
}

fail=0
for bench in "${BENCHES[@]}"; do
  bin="$BUILD/bench/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "missing $bin — build the benches first (cmake --build $BUILD)" >&2
    exit 2
  fi
  echo "== $bench =="
  "$bin" >/dev/null 2>&1 || {
    echo "$bench run failed" >&2
    exit 1
  }
  metrics="$bin.metrics.json"
  if [[ ! -f "$metrics" ]]; then
    echo "$bench did not write $metrics" >&2
    exit 1
  fi
  if [[ "$mode" == "record" ]]; then
    extract "$metrics" "$BASELINES/$bench.json"
    echo "  recorded $BASELINES/$bench.json"
  else
    if [[ ! -f "$BASELINES/$bench.json" ]]; then
      echo "  no baseline for $bench — run scripts/bench_baseline.sh first" >&2
      exit 2
    fi
    extract "$metrics" "$BUILD/$bench.current.json"
    compare "$bench" "$BASELINES/$bench.json" "$BUILD/$bench.current.json" \
      || fail=1
    conflicts=$(lane_conflicts "$metrics")
    if [[ " ${LANE_CONFLICT_EXEMPT[*]} " == *" $bench "* ]]; then
      echo "  $bench: sim.lane_conflicts=$conflicts [exempt]"
    elif [[ "$conflicts" -ne 0 ]]; then
      echo "  $bench: sim.lane_conflicts=$conflicts [CONFLICTS]"
      fail=1
    else
      echo "  $bench: sim.lane_conflicts=0 [ok]"
    fi
  fi
done

if [[ "$mode" == "check" ]]; then
  if [[ $fail -ne 0 ]]; then
    echo "disk-efficiency baselines regressed (>$TOLERANCE x) or lanes conflicted" >&2
    exit 1
  fi
  echo "disk-efficiency baselines hold."
fi
