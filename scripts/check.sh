#!/usr/bin/env bash
# Full check: configure, build, and run the test suite twice — once plain,
# once under AddressSanitizer + UBSan (RHODOS_SANITIZE=address,undefined) —
# then the threaded suites under ThreadSanitizer (RHODOS_SANITIZE=thread):
# the transaction matrix (lock manager, group commit, txn service), lease
# coherence and the cache tier. The plain leg also builds the src/
# libraries and the examples warning-free (-Werror), and checks the
# disk-efficiency baselines and the end-to-end benchmark's determinism.
# --bench, which no other mode runs, re-runs the end-to-end benchmark at
# seeds 101-110 against the newest committed BENCH_*.json (about 3
# minutes at two runs at once).
#
# Usage: scripts/check.sh [--plain-only|--sanitize-only|--tsan|--bench]
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)
mode="${1:-all}"
case "$mode" in
  all|--plain-only|--sanitize-only|--tsan|--bench) ;;
  *)
    echo "usage: scripts/check.sh" \
         "[--plain-only|--sanitize-only|--tsan|--bench]" >&2
    exit 2
    ;;
esac

run_suite() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$jobs"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  # The full run above covers every labelled matrix (disk, txn, repl,
  # shard, lease, snap, cachetier, cache, recovery, hostile, crash); CI
  # can also run one alone with `ctest -L`.
  # A label that selects nothing means a suite lost its label: fail loudly.
  local label
  for label in disk txn repl shard lease snap cachetier cache recovery hostile crash; do
    if ctest --test-dir "$dir" -N -L "^${label}\$" | grep -q "Total Tests: 0"; then
      echo "no test carries the ctest label '$label'" >&2
      exit 1
    fi
  done
}

if [[ "$mode" == "all" || "$mode" == "--plain-only" ]]; then
  echo "== plain build =="
  run_suite build

  echo "== src/ and examples/ build warning-free =="
  # rhodos_core links every src/ library and rhodos_examples builds every
  # example; tests and perfbench/ are not held to -Werror.
  cmake -B build-werror -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
  cmake --build build-werror -j "$jobs" --target rhodos_core rhodos_examples

  echo "== observability: trace dump smoke test =="
  ./build/examples/trace_dump > /dev/null

  echo "== transactions at 4 file shards: bank ledger conserves money =="
  ./build/examples/bank_ledger > /dev/null

  echo "== disk-efficiency baselines =="
  # Re-runs the I/O-sensitive benches and fails if disk references or arm
  # travel regressed >10% against the committed bench/baselines/*.json.
  scripts/bench_baseline.sh --check

  echo "== end-to-end benchmark: determinism self-test =="
  # Builds perfbench/ into .bench_build/ and fails unless every simulated
  # and counted metric reproduces exactly for the same seed.
  python3 perfbench/selftest.py
fi

if [[ "$mode" == "all" || "$mode" == "--sanitize-only" ]]; then
  echo "== sanitized build (address,undefined) =="
  run_suite build-asan -DRHODOS_SANITIZE=address,undefined
fi

if [[ "$mode" == "all" || "$mode" == "--tsan" ]]; then
  echo "== thread-sanitized build: threaded suites =="
  cmake -B build-tsan -S . -DRHODOS_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$jobs"
  # -L txn carries the lock-manager and group-commit suites.
  TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
    ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
      -L 'txn|lease|cachetier'
fi

if [[ "$mode" == "--bench" ]]; then
  echo "== end-to-end benchmark: trajectory against the newest entry =="
  scripts/bench_trajectory.sh --check --jobs 2
fi

echo "All checks passed."
