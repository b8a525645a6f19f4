// E15 — the cost of surviving: replicated throughput in degraded mode, and
// the time to make a group whole again after a disk returns.
//
// The paper's reliability goal ("the provision to support the concept of
// file replication", §2.1) is only worth its price if the degraded system
// still performs and repair is fast. Two measurements:
//
//  * BM_DegradedThroughput — a read/write stream against a 3-replica group,
//    healthy vs. with one replica's disk crashed (reads fail over, writes
//    go degraded). Columns: simulated ms for the stream, failovers,
//    degraded writes.
//  * BM_TimeToRepair — crash a disk, write N versions while it is gone,
//    bring it back, and measure the simulated time RecoveryManager::Tick()
//    spends detecting the edge and re-syncing every stale group.
//
// Expected shape: degraded reads cost about the same (read-one), degraded
// writes slightly less disk time (one replica fewer) but lose redundancy;
// repair time scales with the bytes to copy, not with the outage length.
#include "bench/bench_util.h"

namespace rhodos::bench {
namespace {

constexpr int kOps = 64;
constexpr std::size_t kRegion = 4096;

void BM_DegradedThroughput(benchmark::State& state) {
  const bool degraded = state.range(0) != 0;
  for (auto _ : state) {
    core::FacilityConfig cfg = DefaultFacility(/*disks=*/3,
                                               /*fragments=*/16 * 1024);
    core::DistributedFileFacility f(cfg);
    auto& repl = f.replication();
    auto g = repl.CreateReplicated(file::ServiceType::kTransaction, 3,
                                   kRegion);
    if (!g.ok()) {
      state.SkipWithError("group create failed");
      return;
    }
    const auto data = Pattern(kRegion, 3);
    (void)repl.Write(*g, 0, data);

    if (degraded) {
      const auto reps = repl.Replicas(*g);
      (void)f.CrashDisk((*reps)[0].disk);  // the read path's first choice
      f.recovery().Tick();
    }

    const SimTime start = f.clock().Now();
    std::vector<std::uint8_t> out(kRegion);
    std::uint64_t failures = 0;
    for (int i = 0; i < kOps; ++i) {
      if (i % 2 == 0) {
        failures += repl.Write(*g, 0, data).ok() ? 0 : 1;
      } else {
        failures += repl.Read(*g, 0, out).ok() ? 0 : 1;
      }
    }
    const SimTime elapsed = f.clock().Now() - start;

    state.counters["sim_ms"] =
        static_cast<double>(elapsed) / kSimMillisecond;
    state.counters["failovers"] =
        static_cast<double>(repl.stats().failovers);
    state.counters["degraded_writes"] =
        static_cast<double>(repl.stats().degraded_writes);
    state.counters["op_failures"] = static_cast<double>(failures);
  }
}
BENCHMARK(BM_DegradedThroughput)
    ->Arg(0)  // healthy
    ->Arg(1)  // one replica disk down
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Each replica holds 1 MiB (128 blocks), so the repair copy is big enough
// to show the extent-sized batching: a block-at-a-time rebuild would pay
// one disk reference per block, the vectored rebuild a handful per extent.
constexpr std::size_t kRepairRegion = 1024 * 1024;

void BM_TimeToRepair(benchmark::State& state) {
  const int groups = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::FacilityConfig cfg = DefaultFacility(/*disks=*/3,
                                               /*fragments=*/16 * 1024);
    core::DistributedFileFacility f(cfg);
    auto& repl = f.replication();
    std::vector<replication::GroupId> gs;
    for (int i = 0; i < groups; ++i) {
      auto g = repl.CreateReplicated(file::ServiceType::kTransaction, 3,
                                     kRepairRegion);
      if (!g.ok()) {
        state.SkipWithError("group create failed");
        return;
      }
      gs.push_back(*g);
      (void)repl.Write(*g, 0, Pattern(kRepairRegion, 3));
    }

    // Outage: every group loses its disk-1 replica and takes a write.
    (void)f.CrashDisk(DiskId{1});
    f.recovery().Tick();
    for (auto g : gs) (void)repl.Write(g, 0, Pattern(kRepairRegion, 9));

    // The disk returns; one control-loop tick detects and repairs all.
    (void)f.RecoverDisk(DiskId{1});
    const std::uint64_t write_refs_before = TotalWriteRefs(f);
    const SimTime start = f.clock().Now();
    f.recovery().Tick();
    const SimTime elapsed = f.clock().Now() - start;
    const std::uint64_t repair_disk_refs =
        TotalWriteRefs(f) - write_refs_before;

    std::uint64_t converged = 0;
    for (auto g : gs) {
      auto c = repl.AllCurrent(g);
      converged += (c.ok() && *c) ? 1 : 0;
    }
    // The whole point of the vectored rebuild: far fewer references than
    // blocks copied. A block-at-a-time regression trips this immediately.
    const std::uint64_t blocks_copied =
        static_cast<std::uint64_t>(groups) * (kRepairRegion / kBlockSize);
    if (converged == static_cast<std::uint64_t>(groups) &&
        repair_disk_refs >= blocks_copied) {
      state.SkipWithError("repair used one reference per block — batching "
                          "regressed");
      return;
    }
    state.counters["repair_sim_ms"] =
        static_cast<double>(elapsed) / kSimMillisecond;
    state.counters["repair_disk_refs"] =
        static_cast<double>(repair_disk_refs);
    state.counters["blocks_copied"] = static_cast<double>(blocks_copied);
    state.counters["auto_repairs"] =
        static_cast<double>(f.recovery().stats().auto_repairs);
    state.counters["groups_converged"] = static_cast<double>(converged);
  }
}
BENCHMARK(BM_TimeToRepair)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace rhodos::bench

RHODOS_BENCH_MAIN();
