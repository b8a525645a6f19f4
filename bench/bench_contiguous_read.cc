// E2 — the contiguity count: "all successive blocks, which are contiguous,
// can be cached using one single invocation of get-block, instead of count
// number of invocations" (§5).
//
// Sweep: read an n-block file laid out (a) fully contiguous vs (b) fully
// fragmented (every block relocated by a shadow-style replace). Expected
// shape: contiguous costs O(1) disk references regardless of n; fragmented
// costs ~n; the simulated latency gap widens linearly.
#include "bench/bench_util.h"

namespace rhodos::bench {
namespace {

FileId MakeFile(core::DistributedFileFacility& f, std::uint64_t blocks,
                bool fragmented) {
  auto file = f.files().Create(file::ServiceType::kBasic,
                               blocks * kBlockSize);
  (void)f.files().Write(*file, 0, Pattern(blocks * kBlockSize));
  if (fragmented) {
    // Relocate every block to a fresh location scattered over the disk —
    // exactly what repeated shadow-page commits do to a file (§6.7).
    for (std::uint64_t b = 0; b < blocks; ++b) {
      auto old = f.files().LocateBlock(*file, b);
      auto shadows = f.files().AllocateShadowBlocks(*file, 1);
      const auto* shadow = &shadows->front();
      auto server = f.disks().Get(shadow->disk);
      std::vector<std::uint8_t> content(kBlockSize);
      (void)f.files().ReadBlock(*file, b, content);
      (void)(*server)->PutBlock(shadow->first, kFragmentsPerBlock, content);
      (void)f.files().ReplaceBlocks(*file, {{b, shadow->disk, shadow->first}});
      // Pin the freed slot and burn the rest of the track, so consecutive
      // shadow blocks land on DIFFERENT tracks — otherwise best-fit reuse
      // plus track readahead would mask the fragmentation.
      (void)(*server)->AllocateSpecific(old->first_fragment,
                                        kFragmentsPerBlock);
      (void)(*server)->AllocateFragments(32);
    }
  }
  (void)f.files().FlushAll();
  return *file;
}

void RunRead(benchmark::State& state, bool fragmented) {
  const auto blocks = static_cast<std::uint64_t>(state.range(0));
  core::DistributedFileFacility facility(DefaultFacility(1, 128 * 1024));
  const FileId file = MakeFile(facility, blocks, fragmented);

  std::vector<std::uint8_t> out(blocks * kBlockSize);
  std::uint64_t refs = 0, reads = 0;
  SimTime sim_total = 0;
  for (auto _ : state) {
    ColdCaches(facility);
    // Deltas, not ResetStats: the drained metrics.json keeps the setup
    // writes too, so the baseline gate sees the whole workload's refs.
    const std::uint64_t refs0 = TotalReadRefs(facility);
    const SimTime t0 = facility.clock().Now();
    auto n = facility.files().Read(file, 0, out);
    if (!n.ok()) {
      state.SkipWithError("read failed");
      return;
    }
    sim_total += facility.clock().Now() - t0;
    refs += TotalReadRefs(facility) - refs0;
    ++reads;
  }
  state.counters["disk_refs"] = static_cast<double>(refs) / reads;
  state.counters["sim_ms"] = SimMillis(sim_total) / reads;
  state.counters["contiguity"] = *facility.files().ContiguityIndex(file);
  state.counters["blocks"] = static_cast<double>(blocks);
}

void BM_ContiguousLayout(benchmark::State& state) { RunRead(state, false); }
void BM_FragmentedLayout(benchmark::State& state) { RunRead(state, true); }

BENCHMARK(BM_ContiguousLayout)->Arg(1)->Arg(4)->Arg(16)->Arg(64)
    ->Iterations(3);
BENCHMARK(BM_FragmentedLayout)->Arg(1)->Arg(4)->Arg(16)->Arg(64)
    ->Iterations(3);

}  // namespace
}  // namespace rhodos::bench

RHODOS_BENCH_MAIN();
