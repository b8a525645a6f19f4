// E12 — the transaction service is optional (§2.1, §5, §6): the basic file
// service is "a platform with bare minimum overheads to suit applications
// which manage their own concurrency control and crash recovery", while
// transaction semantics buy atomicity at the cost of locking, intention
// logging, and write-through durability.
//
// Workload: the same 100-update stream against one 16-block file, four
// ways — basic ops, one-txn-per-update (page locking, and record locking,
// whose commits apply byte ranges in place), one txn batching all updates.
// Columns: simulated time per update, main-disk and stable-storage write
// references, log traffic.
//
// Expected shape: basic is cheapest (delayed writes coalesce); per-update
// transactions pay the full commit machinery every time; a batched
// transaction amortizes logging and sits in between.
#include "bench/bench_util.h"

namespace rhodos::bench {
namespace {

constexpr int kUpdates = 100;
constexpr std::uint64_t kFileBlocks = 16;

struct RunResult {
  SimTime sim_time = 0;
  std::uint64_t disk_writes = 0;
  std::uint64_t stable_writes = 0;
  std::uint64_t log_bytes = 0;
};

template <typename Fn>
RunResult Measure(core::DistributedFileFacility& facility, Fn&& body) {
  // A commit's writes ride the next force, or a checkpoint: land the
  // setup's before the window opens, and the body's before it closes.
  (void)facility.transactions().Checkpoint();
  facility.ResetStats();
  const std::uint64_t log0 =
      facility.transactions().log().stats().bytes_logged;
  const SimTime t0 = facility.clock().Now();
  body();
  (void)facility.transactions().Checkpoint();
  RunResult r;
  r.sim_time = facility.clock().Now() - t0;
  r.disk_writes = TotalWriteRefs(facility);
  for (const auto& d : facility.disks().disks()) {
    r.stable_writes += d->stable_stats().write_references;
  }
  r.log_bytes =
      facility.transactions().log().stats().bytes_logged - log0;
  return r;
}

void Report(benchmark::State& state, const RunResult& r) {
  state.counters["sim_us_per_update"] =
      static_cast<double>(r.sim_time) / kSimMicrosecond / kUpdates;
  state.counters["disk_write_refs"] = static_cast<double>(r.disk_writes);
  state.counters["stable_write_refs"] = static_cast<double>(r.stable_writes);
  state.counters["log_KiB"] = static_cast<double>(r.log_bytes) / 1024.0;
}

void BM_BasicFileService(benchmark::State& state) {
  for (auto _ : state) {
    core::DistributedFileFacility facility(DefaultFacility());
    auto file = facility.files().Create(file::ServiceType::kBasic,
                                        kFileBlocks * kBlockSize);
    (void)facility.files().Write(*file, 0,
                                 Pattern(kFileBlocks * kBlockSize));
    (void)facility.files().FlushAll();
    Rng rng(3);
    const RunResult r = Measure(facility, [&] {
      for (int i = 0; i < kUpdates; ++i) {
        const std::uint64_t off = rng.Below(kFileBlocks * kBlockSize - 128);
        (void)facility.files().Write(
            *file, off, Pattern(128, static_cast<std::uint8_t>(i)));
      }
      (void)facility.files().Flush(*file);
    });
    Report(state, r);
  }
}
BENCHMARK(BM_BasicFileService)->Iterations(3);

void TxnPerUpdate(benchmark::State& state, file::LockLevel level) {
  for (auto _ : state) {
    core::DistributedFileFacility facility(DefaultFacility());
    auto& txns = facility.transactions();
    auto t0 = txns.Begin(ProcessId{1});
    auto file = txns.TCreate(*t0, level, kFileBlocks * kBlockSize);
    (void)txns.TWrite(*t0, *file, 0, Pattern(kFileBlocks * kBlockSize));
    (void)txns.End(*t0);
    Rng rng(3);
    const RunResult r = Measure(facility, [&] {
      for (int i = 0; i < kUpdates; ++i) {
        const std::uint64_t off = rng.Below(kFileBlocks * kBlockSize - 128);
        auto t = txns.Begin(ProcessId{1});
        (void)txns.TWrite(*t, *file, off,
                          Pattern(128, static_cast<std::uint8_t>(i)));
        (void)txns.End(*t);
      }
    });
    Report(state, r);
  }
}

void BM_TxnPerUpdate(benchmark::State& state) {
  TxnPerUpdate(state, file::LockLevel::kPage);
}
BENCHMARK(BM_TxnPerUpdate)->Iterations(3);

void BM_TxnPerUpdate_RecordLocking(benchmark::State& state) {
  TxnPerUpdate(state, file::LockLevel::kRecord);
}
BENCHMARK(BM_TxnPerUpdate_RecordLocking)->Iterations(3);

void BM_OneTxnBatchingAllUpdates(benchmark::State& state) {
  for (auto _ : state) {
    core::DistributedFileFacility facility(DefaultFacility());
    auto& txns = facility.transactions();
    auto t0 = txns.Begin(ProcessId{1});
    auto file = txns.TCreate(*t0, file::LockLevel::kPage,
                             kFileBlocks * kBlockSize);
    (void)txns.TWrite(*t0, *file, 0, Pattern(kFileBlocks * kBlockSize));
    (void)txns.End(*t0);
    Rng rng(3);
    const RunResult r = Measure(facility, [&] {
      auto t = txns.Begin(ProcessId{1});
      for (int i = 0; i < kUpdates; ++i) {
        const std::uint64_t off = rng.Below(kFileBlocks * kBlockSize - 128);
        (void)txns.TWrite(*t, *file, off,
                          Pattern(128, static_cast<std::uint8_t>(i)));
      }
      (void)txns.End(*t);
    });
    Report(state, r);
  }
}
BENCHMARK(BM_OneTxnBatchingAllUpdates)->Iterations(3);

}  // namespace
}  // namespace rhodos::bench

RHODOS_BENCH_MAIN();
