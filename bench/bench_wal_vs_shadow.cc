// E7 — WAL versus shadow page at commit (§6.7), the paper's central
// recoverability trade-off:
//   * "the shadow page technique requires lesser I/O overhead than the wal
//     technique, because there is no need to copy blocks in the commit
//     phase";
//   * but "this technique destroys the contiguity of data blocks", while
//     "the use of the wal technique retains the performance gain achieved
//     due to the contiguous allocation";
//   * RHODOS therefore picks WAL when the blocks are contiguous and shadow
//     paging when they are not.
//
// Workload: N single-page update transactions against an initially
// contiguous 64-block file, under WAL-only, shadow-only, and the paper's
// hybrid rule. Columns: commit disk writes, simulated time per commit, log
// bytes, post-run contiguity index, and the simulated time of a full
// sequential re-read afterwards.
//
// Expected shape: shadow-only logs the least but contiguity collapses and
// the re-read slows down by an order of magnitude; WAL-only logs every
// page image but the re-read stays at ~2 references; the hybrid behaves
// like WAL here (the file starts contiguous and WAL keeps it so).
//
// BM_ShadowAlways_FileOnDisk1 repeats shadow-only on two disks with the
// file on disk 1, away from the intention log on disk 0: each commit's
// shadow page and log force go out as lanes of one section, so the force
// hides under the page write.
#include "bench/bench_util.h"

namespace rhodos::bench {
namespace {

constexpr std::uint64_t kFileBlocks = 64;
constexpr int kTransactions = 100;

// `home` is the disk the file lives on; the facility has disks 0..home
// and the intention log is on disk 0.
void RunTechnique(benchmark::State& state,
                  txn::TxnServiceConfig::TechniqueOverride technique,
                  DiskId home = DiskId{0}) {
  std::uint64_t commit_writes = 0, log_bytes = 0, rounds = 0;
  SimTime commit_time = 0;
  double contiguity = 1.0;
  SimTime reread_time = 0;
  std::uint64_t reread_refs = 0;

  for (auto _ : state) {
    core::FacilityConfig cfg = DefaultFacility(home.value + 1, 128 * 1024);
    cfg.txn.technique = technique;
    core::DistributedFileFacility facility(cfg);
    auto& txns = facility.transactions();

    // A contiguous transaction file on `home` (creates rotate over disks).
    Result<FileId> file = Error{ErrorCode::kNotFound, "no file yet"};
    while (!file.ok() || file::FileDisk(*file) != home) {
      auto t0 = txns.Begin(ProcessId{1});
      file = txns.TCreate(*t0, file::LockLevel::kPage,
                          kFileBlocks * kBlockSize);
      (void)txns.TWrite(*t0, *file, 0, Pattern(kFileBlocks * kBlockSize));
      (void)txns.End(*t0);
    }

    // N random single-page updates, each its own transaction. A commit's
    // writes ride the next force, or a checkpoint: the setup's land before
    // the window opens, the updates' before it closes.
    Rng rng(42);
    (void)txns.Checkpoint();
    facility.ResetStats();
    const std::uint64_t log0 = txns.log().stats().bytes_logged;
    const SimTime c0 = facility.clock().Now();
    for (int i = 0; i < kTransactions; ++i) {
      auto t = txns.Begin(ProcessId{1});
      const std::uint64_t page = rng.Below(kFileBlocks);
      (void)txns.TWrite(*t, *file, page * kBlockSize,
                        Pattern(kBlockSize, static_cast<std::uint8_t>(i)));
      (void)txns.End(*t);
    }
    (void)txns.Checkpoint();
    commit_time += facility.clock().Now() - c0;
    commit_writes += TotalWriteRefs(facility);
    log_bytes += txns.log().stats().bytes_logged - log0;
    contiguity = *facility.files().ContiguityIndex(*file);

    // The after-effect: a cold sequential re-read of the whole file.
    ColdCaches(facility);
    facility.disks().ResetStats();
    std::vector<std::uint8_t> out(kFileBlocks * kBlockSize);
    const SimTime r0 = facility.clock().Now();
    (void)facility.files().Read(*file, 0, out);
    reread_time += facility.clock().Now() - r0;
    reread_refs += TotalReadRefs(facility);
    ++rounds;
    if (home != DiskId{0}) {
      // The drained metrics gate the one-disk rows (bench/baselines);
      // this row reports through its counters only.
      facility.ResetStats();
    }
  }
  state.counters["commit_disk_write_refs"] =
      static_cast<double>(commit_writes) / rounds;
  state.counters["commit_sim_ms"] =
      SimMillis(commit_time) / rounds / kTransactions;
  state.counters["log_KiB"] =
      static_cast<double>(log_bytes) / rounds / 1024.0;
  state.counters["contiguity_after"] = contiguity;
  state.counters["reread_sim_ms"] = SimMillis(reread_time) / rounds;
  state.counters["reread_disk_refs"] =
      static_cast<double>(reread_refs) / rounds;
}

void BM_WalAlways(benchmark::State& state) {
  RunTechnique(state, txn::TxnServiceConfig::TechniqueOverride::kWalAlways);
}
void BM_ShadowAlways(benchmark::State& state) {
  RunTechnique(state,
               txn::TxnServiceConfig::TechniqueOverride::kShadowAlways);
}
void BM_RhodosHybrid(benchmark::State& state) {
  RunTechnique(state, txn::TxnServiceConfig::TechniqueOverride::kAuto);
}
void BM_ShadowAlways_FileOnDisk1(benchmark::State& state) {
  RunTechnique(state, txn::TxnServiceConfig::TechniqueOverride::kShadowAlways,
               DiskId{1});
}
BENCHMARK(BM_WalAlways)->Iterations(2);
BENCHMARK(BM_ShadowAlways)->Iterations(2);
BENCHMARK(BM_RhodosHybrid)->Iterations(2);
BENCHMARK(BM_ShadowAlways_FileOnDisk1)->Iterations(2);

// The hybrid rule on an ALREADY-fragmented file: RHODOS switches to shadow
// paging, avoiding WAL's double write of page images.
void BM_RhodosHybrid_FragmentedFile(benchmark::State& state) {
  std::uint64_t shadow_commits = 0, wal_commits = 0, rounds = 0;
  for (auto _ : state) {
    core::FacilityConfig cfg = DefaultFacility(1, 128 * 1024);
    core::DistributedFileFacility facility(cfg);
    auto& txns = facility.transactions();
    auto t0 = txns.Begin(ProcessId{1});
    auto file = txns.TCreate(*t0, file::LockLevel::kPage,
                             16 * kBlockSize);
    (void)txns.TWrite(*t0, *file, 0, Pattern(16 * kBlockSize));
    (void)txns.End(*t0);
    // Fragment it.
    auto shadows = facility.files().AllocateShadowBlocks(*file, 1);
    const auto* shadow = &shadows->front();
    auto server = facility.disks().Get(shadow->disk);
    (void)(*server)->PutBlock(shadow->first, kFragmentsPerBlock,
                              Pattern(kBlockSize));
    (void)facility.files().ReplaceBlocks(*file,
                                         {{7, shadow->disk, shadow->first}});
    txns.ResetStats();
    for (int i = 0; i < 10; ++i) {
      auto t = txns.Begin(ProcessId{1});
      (void)txns.TWrite(*t, *file, (i % 16) * kBlockSize,
                        Pattern(kBlockSize, static_cast<std::uint8_t>(i)));
      (void)txns.End(*t);
    }
    shadow_commits += txns.stats().shadow_commits;
    wal_commits += txns.stats().wal_commits;
    ++rounds;
  }
  state.counters["shadow_commits"] =
      static_cast<double>(shadow_commits) / rounds;
  state.counters["wal_commits"] = static_cast<double>(wal_commits) / rounds;
}
BENCHMARK(BM_RhodosHybrid_FragmentedFile)->Iterations(2);

}  // namespace
}  // namespace rhodos::bench

RHODOS_BENCH_MAIN();
