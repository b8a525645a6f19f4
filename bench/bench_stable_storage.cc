// E11 — stable storage (§2.1, §4): "provision of stable storage ensures
// that all the important data structures used for file management ... are
// recoverable", with put_block's caller choosing stable-only vs
// original+stable and synchronous vs asynchronous completion.
//
// Part 1 (cost): per-write simulated latency of the four stable-mode /
// sync combinations, plus put_block to a fresh location (main and mirror
// written concurrently). Expected shape: none < async-stable ≈ none
// (deferred) ≈ fresh < sync original+stable ≈ 2x a plain write.
//
// Part 2 (recoverability): commit transactions while injecting a disk
// crash after the k-th write reference, for every k the commit performs;
// after recovery the file must hold either the OLD or the NEW value —
// never a torn mixture — and committed-then-crashed updates must be
// redone. Reported as a success rate over all injection points.
#include "bench/bench_util.h"

#include "disk/disk_server.h"

namespace rhodos::bench {
namespace {

// --- Part 1: write-mode cost ---------------------------------------------------

void RunPutMode(benchmark::State& state, disk::StableMode mode,
                disk::WriteSync sync) {
  disk::DiskServerConfig cfg;
  cfg.geometry.total_fragments = 64 * 1024;
  SimClock clock;
  disk::DiskServer server(DiskId{0}, cfg, &clock);
  const FragmentIndex home = *server.AllocateBlocks(1);
  const auto data = Pattern(kBlockSize);
  SimTime total = 0;
  std::uint64_t writes = 0;
  for (auto _ : state) {
    const SimTime t0 = clock.Now();
    (void)server.PutBlock(home, kFragmentsPerBlock, data, mode, sync);
    total += clock.Now() - t0;
    ++writes;
    if (server.PendingStableWrites() > 128) {
      (void)server.DrainStableWrites();
    }
  }
  state.counters["sim_us_per_write"] =
      static_cast<double>(total) / kSimMicrosecond / writes;
  state.counters["stable_backlog"] =
      static_cast<double>(server.PendingStableWrites());
}

// PutFreshBlock at the same home block as the rows above, so the costs
// compare like for like; each write stands in for a just-allocated block.
void BM_Put_Fresh(benchmark::State& state) {
  disk::DiskServerConfig cfg;
  cfg.geometry.total_fragments = 64 * 1024;
  SimClock clock;
  disk::DiskServer server(DiskId{0}, cfg, &clock);
  const FragmentIndex home = *server.AllocateBlocks(1);
  const auto data = Pattern(kBlockSize);
  SimTime total = 0;
  std::uint64_t writes = 0;
  for (auto _ : state) {
    const SimTime t0 = clock.Now();
    (void)server.PutFreshBlock(home, kFragmentsPerBlock, data);
    total += clock.Now() - t0;
    ++writes;
  }
  state.counters["sim_us_per_write"] =
      static_cast<double>(total) / kSimMicrosecond / writes;
}

void BM_Put_OriginalOnly(benchmark::State& state) {
  RunPutMode(state, disk::StableMode::kNone, disk::WriteSync::kSynchronous);
}
void BM_Put_StableOnly_Sync(benchmark::State& state) {
  RunPutMode(state, disk::StableMode::kStableOnly,
             disk::WriteSync::kSynchronous);
}
void BM_Put_OriginalAndStable_Sync(benchmark::State& state) {
  RunPutMode(state, disk::StableMode::kOriginalAndStable,
             disk::WriteSync::kSynchronous);
}
void BM_Put_OriginalAndStable_Async(benchmark::State& state) {
  RunPutMode(state, disk::StableMode::kOriginalAndStable,
             disk::WriteSync::kAsynchronous);
}
BENCHMARK(BM_Put_OriginalOnly)->Iterations(200);
BENCHMARK(BM_Put_StableOnly_Sync)->Iterations(200);
BENCHMARK(BM_Put_OriginalAndStable_Sync)->Iterations(200);
BENCHMARK(BM_Put_OriginalAndStable_Async)->Iterations(200);
BENCHMARK(BM_Put_Fresh)->Iterations(200);

// --- Part 2: atomicity under crash injection -------------------------------------

void BM_CommitCrashSweep(benchmark::State& state) {
  std::uint64_t atomic_outcomes = 0, torn_outcomes = 0, points = 0;
  std::uint64_t redone = 0;
  for (auto _ : state) {
    // Find how many write references one commit performs, then inject a
    // crash at every index in turn.
    for (std::int64_t crash_at = 0; crash_at < 24; ++crash_at) {
      core::FacilityConfig cfg = DefaultFacility();
      core::DistributedFileFacility facility(cfg);
      auto& txns = facility.transactions();
      auto t0 = txns.Begin(ProcessId{1});
      auto file = txns.TCreate(*t0, file::LockLevel::kPage,
                               4 * kBlockSize);
      const auto old_value = Pattern(kBlockSize, 0xA0);
      (void)txns.TWrite(*t0, *file, 0, old_value);
      (void)txns.End(*t0);
      (void)facility.files().FlushAll();

      // Arm the crash and run the update transaction.
      auto server = facility.disks().Get(DiskId{0});
      (*server)->SetFaultPlan(
          sim::DiskFaultPlan{.media_error_rate = 0,
                             .crash_after_writes = crash_at});
      const auto new_value = Pattern(kBlockSize, 0xB1);
      auto t1 = txns.Begin(ProcessId{1});
      (void)txns.TWrite(*t1, *file, 0, new_value);
      (void)txns.End(*t1);  // may fail at any internal write

      // Recover the whole system and audit the committed state.
      facility.CrashServers();
      (void)facility.RecoverServers();
      std::vector<std::uint8_t> got(kBlockSize);
      auto n = facility.files().Read(*file, 0, got);
      if (n.ok() && (got == old_value || got == new_value)) {
        ++atomic_outcomes;
      } else {
        ++torn_outcomes;
      }
      redone += facility.transactions().stats().recovered_redone;
      ++points;
    }
  }
  state.counters["injection_points"] = static_cast<double>(points);
  state.counters["atomic_pct"] =
      100.0 * static_cast<double>(atomic_outcomes) /
      static_cast<double>(points);
  state.counters["torn"] = static_cast<double>(torn_outcomes);
  state.counters["txns_redone_at_recovery"] = static_cast<double>(redone);
}
BENCHMARK(BM_CommitCrashSweep)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Without stable storage the vital structures are NOT recoverable when the
// main copy tears: the ablation row.
void BM_IndexTableLoss_NoStableFallback(benchmark::State& state) {
  std::uint64_t survived_with = 0, survived_without = 0, rounds = 0;
  for (auto _ : state) {
    core::DistributedFileFacility facility(DefaultFacility());
    auto file = facility.files().Create(file::ServiceType::kBasic, 0);
    (void)facility.files().Write(*file, 0, Pattern(1000));
    (void)facility.files().FlushAll();
    facility.files().Crash();
    // Tear the MAIN copy of the index table; cycle the disk server so the
    // damage is not masked by its track cache.
    auto server = facility.disks().Get(file::FileDisk(*file));
    std::vector<std::uint8_t> junk(kFragmentSize, 0xFF);
    (*server)->main_device().RawOverwrite(file::FileFitFragment(*file),
                                          junk);
    (*server)->Crash();
    (void)(*server)->Recover();
    std::vector<std::uint8_t> out(1000);
    survived_with += facility.files().Read(*file, 0, out).ok() ? 1 : 0;
    // Now also tear the stable mirror: unrecoverable.
    (*server)->stable_device().RawOverwrite(file::FileFitFragment(*file),
                                            junk);
    (*server)->Crash();
    (void)(*server)->Recover();
    facility.files().Crash();
    survived_without += facility.files().Read(*file, 0, out).ok() ? 1 : 0;
    ++rounds;
  }
  state.counters["recovered_with_stable_pct"] =
      100.0 * static_cast<double>(survived_with) / rounds;
  state.counters["recovered_without_stable_pct"] =
      100.0 * static_cast<double>(survived_without) / rounds;
}
BENCHMARK(BM_IndexTableLoss_NoStableFallback)->Iterations(3);

}  // namespace
}  // namespace rhodos::bench

RHODOS_BENCH_MAIN();
