// E25 — the basic and the transaction-oriented file services side by side
// over one disk service (§5–6): a commit's intention log must not slow a
// basic write to a file the log does not name.
//
// Workload, on two disks: 200 iterations of a WAL commit of one page of a
// file on disk 0, then a basic Write + Sync of one block of a file on
// disk 1 that no transaction touches. Three rows: the commits alone, the
// basic writes alone, and the two interleaved. Each window opens after one
// warm-up iteration, so a commit's owed page rides the next commit's force
// in the window as it does in steady state.
// Columns: simulated time and disk references (main reads and writes,
// stable writes) per iteration.
//
// Expected shape: the interleaved pair costs the two alone-rows summed —
// 3 references — since the basic write's file holds no claim of the log
// and the write goes straight to its disk.
#include "bench/bench_util.h"

namespace rhodos::bench {
namespace {

constexpr int kIterations = 200;

struct Files {
  FileId logged;  // committed by WAL, on disk 0
  FileId basic;   // basic writes only, on disk 1
};

Files MakeFiles(core::DistributedFileFacility& f) {
  Files out{};
  auto& txns = f.transactions();
  while (out.logged.value == 0) {
    auto t = txns.Begin(ProcessId{1});
    auto file = txns.TCreate(*t, file::LockLevel::kPage, kBlockSize);
    (void)txns.TWrite(*t, *file, 0, Pattern(kBlockSize));
    (void)txns.End(*t);
    if (file::FileDisk(*file).value == 0) out.logged = *file;
  }
  while (out.basic.value == 0) {
    auto file = f.files().Create(file::ServiceType::kBasic, kBlockSize);
    (void)f.files().Write(*file, 0, Pattern(kBlockSize));
    if (file::FileDisk(*file).value == 1) out.basic = *file;
  }
  (void)f.files().FlushAll();
  return out;
}

std::uint64_t References(core::DistributedFileFacility& f) {
  std::uint64_t n = 0;
  for (const auto& d : f.disks().disks()) {
    n += d->main_stats().read_references + d->main_stats().write_references +
         d->stable_stats().write_references;
  }
  return n;
}

void Run(benchmark::State& state, bool commits, bool basic_writes) {
  for (auto _ : state) {
    core::DistributedFileFacility f(DefaultFacility(/*disks=*/2));
    const Files files = MakeFiles(f);
    auto iteration = [&](int i) {
      const auto fill = static_cast<std::uint8_t>(i);
      if (commits) {
        auto t = f.transactions().Begin(ProcessId{1});
        (void)f.transactions().TWrite(*t, files.logged, 0,
                                      Pattern(kBlockSize, fill));
        (void)f.transactions().End(*t);
      }
      if (basic_writes) {
        (void)f.files().Write(files.basic, 0, Pattern(kBlockSize, fill));
        (void)f.files().Sync(files.basic);
      }
    };
    iteration(-1);
    f.ResetStats();
    const SimTime t0 = f.clock().Now();
    for (int i = 0; i < kIterations; ++i) iteration(i);
    state.counters["sim_us_per_iteration"] =
        static_cast<double>(f.clock().Now() - t0) / kSimMicrosecond /
        kIterations;
    state.counters["refs_per_iteration"] =
        static_cast<double>(References(f)) / kIterations;
    state.counters["log_resets"] =
        static_cast<double>(f.transactions().log().stats().reset_writes);
  }
}

void BM_CommitsAlone(benchmark::State& state) { Run(state, true, false); }
BENCHMARK(BM_CommitsAlone)->Iterations(1);

void BM_BasicWritesAlone(benchmark::State& state) { Run(state, false, true); }
BENCHMARK(BM_BasicWritesAlone)->Iterations(1);

void BM_Interleaved(benchmark::State& state) { Run(state, true, true); }
BENCHMARK(BM_Interleaved)->Iterations(1);

}  // namespace
}  // namespace rhodos::bench

RHODOS_BENCH_MAIN();
