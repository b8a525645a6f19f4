// E18 — group commit (§6.6): amortizing the intention-log force.
//
// The paper's commit rule charges every transaction one synchronous stable-
// storage force for its intentions. Under concurrent commit traffic the
// LogPipeline batches those forces: records from every transaction that
// reaches tend() inside the batching window ride one vectored stable write
// and all of them acknowledge off that single disk reference.
//
// Workload: 16 writer threads, each committing kRounds single-page
// transactions against its own file. Swept over the pipeline disabled (the
// batch-size-1 pre-pipeline behaviour: every record forced at append) and
// enabled with max_batch 1, 4 and 16.
// Columns: log forces per committed transaction, stable write references
// per transaction, simulated time per commit.
//
// Expected shape: disabled pays ~4 forces per transaction (begin, redo,
// commit, completed each forced alone); the pipeline collapses that to well
// under one force per transaction at 16 writers — the >= 4x disk-reference
// saving E18 exists to demonstrate.
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace rhodos::bench {
namespace {

constexpr int kWriters = 16;
constexpr int kRounds = 8;

struct StormResult {
  std::uint64_t commits = 0;
  std::uint64_t forces = 0;       // log device forces (vectored puts)
  std::uint64_t stable_refs = 0;  // stable write references, all disks
  std::uint64_t batches = 0;      // batch frames those forces carried
  SimTime sim_time = 0;
};

std::uint64_t StableWriteRefs(core::DistributedFileFacility& f) {
  std::uint64_t n = 0;
  for (const auto& d : f.disks().disks()) {
    n += d->stable_stats().write_references;
  }
  return n;
}

StormResult RunStorm(core::DistributedFileFacility& facility) {
  auto& txns = facility.transactions();
  std::vector<FileId> files;
  for (int w = 0; w < kWriters; ++w) {
    auto t = txns.Begin(ProcessId{1});
    auto file = txns.TCreate(*t, file::LockLevel::kPage, kBlockSize);
    (void)txns.TWrite(*t, *file, 0,
                      Pattern(kBlockSize, static_cast<std::uint8_t>(w + 1)));
    (void)txns.End(*t);
    files.push_back(*file);
  }

  // A commit's writes ride the next force, or a checkpoint: land the
  // setup's before the window opens, and the storm's before it closes.
  (void)txns.Checkpoint();
  const std::uint64_t commits0 = txns.stats().commits;
  const std::uint64_t forces0 = txns.log().stats().forces;
  const std::uint64_t batches0 = txns.log().stats().batches;
  const std::uint64_t stable0 = StableWriteRefs(facility);
  const SimTime t0 = facility.clock().Now();

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        auto t = txns.Begin(ProcessId{static_cast<std::uint64_t>(w + 1)});
        if (!t.ok()) return;
        (void)txns.TWrite(
            *t, files[w], 0,
            Pattern(kBlockSize,
                    static_cast<std::uint8_t>(w * kRounds + r + 1)));
        (void)txns.End(*t);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  (void)txns.Checkpoint();

  StormResult r;
  r.commits = txns.stats().commits - commits0;
  r.forces = txns.log().stats().forces - forces0;
  r.batches = txns.log().stats().batches - batches0;
  r.stable_refs = StableWriteRefs(facility) - stable0;
  r.sim_time = facility.clock().Now() - t0;
  return r;
}

void Report(benchmark::State& state, const StormResult& r) {
  const auto commits = static_cast<double>(r.commits);
  state.counters["txn_commits"] = commits;
  state.counters["log_forces"] = static_cast<double>(r.forces);
  state.counters["log_forces_per_txn"] =
      commits > 0 ? static_cast<double>(r.forces) / commits : 0;
  state.counters["stable_refs_per_txn"] =
      commits > 0 ? static_cast<double>(r.stable_refs) / commits : 0;
  state.counters["records_per_batch"] =
      r.batches > 0 ? static_cast<double>(r.commits) * 4 /
                          static_cast<double>(r.batches)
                    : 0;
  state.counters["sim_us_per_commit"] =
      commits > 0 ? static_cast<double>(r.sim_time) / kSimMicrosecond / commits
                  : 0;
}

// Arg 0: pipeline disabled (batch-size-1 baseline). Arg N>0: pipeline
// enabled with max_batch = N and a short real-time leader window so the 16
// writers actually meet inside a batch.
void BM_GroupCommit16Writers(benchmark::State& state) {
  const int max_batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::FacilityConfig cfg = DefaultFacility();
    cfg.txn.log_fragments = 4096;  // no mid-storm truncation pressure
    cfg.txn.group_commit.enabled = max_batch > 0;
    if (max_batch > 0) {
      cfg.txn.group_commit.max_batch = static_cast<std::uint32_t>(max_batch);
      cfg.txn.group_commit.leader_window = std::chrono::milliseconds(2);
    }
    core::DistributedFileFacility facility(cfg);
    Report(state, RunStorm(facility));
  }
}
BENCHMARK(BM_GroupCommit16Writers)
    ->ArgName("max_batch")
    ->Arg(0)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Iterations(1)
    ->UseRealTime();

}  // namespace
}  // namespace rhodos::bench

RHODOS_BENCH_MAIN();
