// E21 — metadata-plane shard scaling: the same mixed open/write/resolve
// storm driven against 1, 2, 4 and 8 metadata shards (docs/SHARDING.md).
//
// The storm pre-creates a fleet of named files, buckets them by the
// placement map's home shard, and then drives one lane per shard
// (sim::ParallelSection: elapsed = busiest lane, not the sum) where each
// lane hammers its own shard with open → pwrite → flush → close →
// resolve cycles. Because the placement map gives every shard a disjoint
// slice of the FileId space, the lanes never contend on a metadata
// instance, and aggregate throughput should grow near-linearly until the
// shared disk substrate saturates.
//
//  * BM_ShardScalingMetadataStorm — the table row: ops, simulated
//    elapsed, throughput per shard count.
//  * BM_ShardScalingSpeedup — the acceptance gate: 8-shard aggregate
//    throughput must be at least 3x the 1-shard figure, or the bench
//    fails loudly (SkipWithError).
#include "bench/bench_util.h"
#include "sim/parallel.h"

namespace rhodos::bench {
namespace {

constexpr std::uint32_t kFiles = 64;
constexpr std::uint32_t kRounds = 6;
constexpr std::size_t kWriteBytes = 512;

struct StormResult {
  double ops = 0;
  double elapsed_ms = 0;
  double ops_per_ms = 0;
  bool ok = false;
};

// Builds a facility with `shards` metadata shards and runs the storm.
StormResult RunStorm(std::uint32_t shards) {
  StormResult result;
  core::FacilityConfig cfg = DefaultFacility(8, 8 * 1024);
  cfg.sharding.file_shards = shards;
  cfg.sharding.naming_shards = shards;
  core::DistributedFileFacility f(cfg);
  for (std::uint32_t s = 0; s < shards; ++s) (void)f.AddMachine();

  // Fleet setup: named files, bucketed by their home shard so each lane
  // talks to exactly one metadata instance during the storm.
  std::vector<std::vector<naming::AttributedName>> bucket(shards);
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    const auto name = naming::ByName("shardbench-" + std::to_string(i));
    auto& agent = *f.machine(i % shards).file_agent;
    auto od = agent.Create(name, file::ServiceType::kBasic, 8 * kWriteBytes);
    if (!od.ok()) return result;
    auto id = agent.FileOf(*od);
    if (!id.ok() || !agent.Close(*od).ok()) return result;
    bucket[f.placement().map().ShardForFile(*id)].push_back(name);
  }

  const auto chunk = Pattern(kWriteBytes, 3);
  std::uint64_t ops = 0;
  const SimTime start = f.clock().Now();
  {
    sim::ParallelSection section(&f.clock());
    for (std::uint32_t s = 0; s < shards; ++s) {
      section.BeginLane();
      auto& agent = *f.machine(s).file_agent;
      for (std::uint32_t round = 0; round < kRounds; ++round) {
        for (const auto& name : bucket[s]) {
          auto od = agent.Open(name);
          if (!od.ok()) return result;
          if (!agent.Pwrite(*od, (round * kWriteBytes) % (8 * kWriteBytes),
                            chunk)
                   .ok()) {
            return result;
          }
          if (!agent.Flush(*od).ok()) return result;
          if (!agent.Close(*od).ok()) return result;
          if (!f.naming().ResolveFile(name).ok()) return result;
          ++ops;
        }
      }
      section.EndLane();
    }
    section.Commit();
  }
  result.elapsed_ms = SimMillis(f.clock().Now() - start);
  result.ops = static_cast<double>(ops);
  result.ops_per_ms =
      result.elapsed_ms > 0 ? result.ops / result.elapsed_ms : 0;
  result.ok = ops == static_cast<std::uint64_t>(kFiles) * kRounds;
  return result;
}

void BM_ShardScalingMetadataStorm(benchmark::State& state) {
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    const StormResult r = RunStorm(shards);
    if (!r.ok) {
      state.SkipWithError("storm failed");
      return;
    }
    state.counters["shards"] = shards;
    state.counters["storm_ops"] = r.ops;
    state.counters["sim_elapsed_ms"] = r.elapsed_ms;
    state.counters["ops_per_sim_ms"] = r.ops_per_ms;
  }
}
BENCHMARK(BM_ShardScalingMetadataStorm)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_ShardScalingSpeedup(benchmark::State& state) {
  for (auto _ : state) {
    const StormResult one = RunStorm(1);
    const StormResult eight = RunStorm(8);
    if (!one.ok || !eight.ok) {
      state.SkipWithError("storm failed");
      return;
    }
    const double speedup =
        one.ops_per_ms > 0 ? eight.ops_per_ms / one.ops_per_ms : 0;
    if (speedup < 3.0) {
      state.SkipWithError("8-shard throughput fell below 3x the 1-shard run");
      return;
    }
    state.counters["speedup_8v1"] = speedup;
    state.counters["ops_per_sim_ms_1"] = one.ops_per_ms;
    state.counters["ops_per_sim_ms_8"] = eight.ops_per_ms;
  }
}
BENCHMARK(BM_ShardScalingSpeedup)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace rhodos::bench

RHODOS_BENCH_MAIN();
