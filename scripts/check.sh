#!/usr/bin/env bash
# Full check: configure, build, and run the test suite twice — once plain,
# once under AddressSanitizer + UBSan (RHODOS_SANITIZE=address,undefined).
#
# Usage: scripts/check.sh [--plain-only|--sanitize-only]
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)
mode="${1:-all}"
case "$mode" in
  all|--plain-only|--sanitize-only) ;;
  *)
    echo "usage: scripts/check.sh [--plain-only|--sanitize-only]" >&2
    exit 2
    ;;
esac

run_suite() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$jobs"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  # The full run above covers every labelled matrix (txn, repl, shard,
  # lease, snap, cachetier); CI can also run one alone with `ctest -L`.
  # A label that selects nothing means a suite lost its label: fail loudly.
  local label
  for label in txn repl shard lease snap cachetier; do
    if ctest --test-dir "$dir" -N -L "$label" | grep -q "Total Tests: 0"; then
      echo "no test carries the ctest label '$label'" >&2
      exit 1
    fi
  done
}

if [[ "$mode" != "--sanitize-only" ]]; then
  echo "== plain build =="
  run_suite build

  echo "== observability: trace dump smoke test =="
  ./build/examples/trace_dump > /dev/null

  echo "== disk-efficiency baselines =="
  # Re-runs the I/O-sensitive benches and fails if disk references or arm
  # travel regressed >10% against the committed bench/baselines/*.json.
  scripts/bench_baseline.sh --check
fi

if [[ "$mode" != "--plain-only" ]]; then
  echo "== sanitized build (address,undefined) =="
  run_suite build-asan -DRHODOS_SANITIZE=address,undefined
fi

echo "All checks passed."
