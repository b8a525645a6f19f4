// E5 — track caching in the disk service (§4): "this service retrieves only
// those blocks/fragments from a disk track which are necessary ... then the
// disk service caches the rest of the data from the same track ... to
// satisfy any subsequent requests ... pertaining to the same track."
//
// Workloads: sequential block reads and strided (every other block) reads
// over a multi-track file, with the track cache + readahead on vs off.
// Expected shape: with the cache on, only the first touch of each track
// pays a reference; hit rates climb toward (1 - tracks/blocks); simulated
// time drops accordingly. The no-cache column is the paper's "Bullet
// server" cautionary tale.
//
// The last row stacks the file service's block pool (§5) on the track
// cache: random re-reads of a working set larger than the pool but within
// pool plus track-cache capacity. The pool evicts first an unread block
// the track cache still holds, so the two levels keep few blocks twice
// and a read rarely reaches the platter.
#include "bench/bench_util.h"

#include "common/rng.h"
#include "disk/disk_server.h"

namespace rhodos::bench {
namespace {

disk::DiskServerConfig ServerConfig(bool caching) {
  disk::DiskServerConfig c;
  c.geometry.total_fragments = 64 * 1024;
  c.geometry.fragments_per_track = 32;  // 8 blocks per track
  c.cache_capacity_tracks = caching ? 64 : 0;
  c.track_readahead = caching;
  return c;
}

constexpr std::uint64_t kBlocks = 128;  // 1 MiB region, 16 tracks

void RunPattern(benchmark::State& state, bool caching, std::uint64_t stride) {
  SimClock clock;
  disk::DiskServer server(DiskId{0}, ServerConfig(caching), &clock);
  const FragmentIndex base =
      *server.AllocateBlocks(static_cast<std::uint32_t>(kBlocks));
  const auto data = Pattern(kBlocks * kBlockSize);
  (void)server.PutBlock(base,
                        static_cast<std::uint32_t>(kBlocks *
                                                   kFragmentsPerBlock),
                        data);

  std::vector<std::uint8_t> out(kBlockSize);
  std::uint64_t rounds = 0;
  std::uint64_t refs = 0;
  SimTime sim_total = 0;
  for (auto _ : state) {
    // Cold device cache each round so rounds are identical.
    server.Crash();
    (void)server.Recover();
    server.ResetStats();
    const SimTime t0 = clock.Now();
    for (std::uint64_t b = 0; b < kBlocks; b += stride) {
      (void)server.GetBlock(base + b * kFragmentsPerBlock,
                            kFragmentsPerBlock, out);
    }
    sim_total += clock.Now() - t0;
    refs += server.main_stats().read_references;
    ++rounds;
    state.counters["cache_hit_rate"] = server.cache_stats().HitRate();
  }
  state.counters["disk_refs"] = static_cast<double>(refs) / rounds;
  state.counters["sim_ms"] = SimMillis(sim_total) / rounds;
  state.counters["blocks_read"] =
      static_cast<double>((kBlocks + stride - 1) / stride);
}

void BM_Sequential_TrackCacheOn(benchmark::State& state) {
  RunPattern(state, true, 1);
}
void BM_Sequential_TrackCacheOff(benchmark::State& state) {
  RunPattern(state, false, 1);
}
void BM_Strided_TrackCacheOn(benchmark::State& state) {
  RunPattern(state, true, 2);
}
void BM_Strided_TrackCacheOff(benchmark::State& state) {
  RunPattern(state, false, 2);
}
BENCHMARK(BM_Sequential_TrackCacheOn)->Iterations(3);
BENCHMARK(BM_Sequential_TrackCacheOff)->Iterations(3);
BENCHMARK(BM_Strided_TrackCacheOn)->Iterations(3);
BENCHMARK(BM_Strided_TrackCacheOff)->Iterations(3);

// Re-read of a working set that fits in the cache: zero disk references.
void BM_WarmRereads(benchmark::State& state) {
  SimClock clock;
  disk::DiskServer server(DiskId{0}, ServerConfig(true), &clock);
  const FragmentIndex base = *server.AllocateBlocks(16);
  const auto data = Pattern(16 * kBlockSize);
  (void)server.PutBlock(base, 64, data);
  std::vector<std::uint8_t> out(kBlockSize);
  (void)server.GetBlock(base, kFragmentsPerBlock, out);  // warm
  server.ResetStats();
  for (auto _ : state) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      (void)server.GetBlock(base + b * kFragmentsPerBlock,
                            kFragmentsPerBlock, out);
    }
  }
  state.counters["disk_refs_total"] =
      static_cast<double>(server.main_stats().read_references);
  state.counters["cache_hit_rate"] = server.cache_stats().HitRate();
}
BENCHMARK(BM_WarmRereads)->Iterations(10);

// 64-block pool over 16 cached tracks (128 blocks): 160 blocks fit the two
// levels together, not the pool alone.
void BM_PoolOverTrackCache_RandomRereads(benchmark::State& state) {
  constexpr std::uint64_t kWorkingSet = 160;
  constexpr int kWarm = 2000;
  constexpr int kReads = 8000;
  core::FacilityConfig config = DefaultFacility();
  config.file.block_pool_capacity = 64;
  config.disk_cache_tracks = 16;
  core::DistributedFileFacility facility(config);
  file::FileService& files = facility.files();
  auto file = files.Create(file::ServiceType::kBasic,
                           kWorkingSet * kBlockSize);
  if (!file.ok() ||
      !files.Write(*file, 0, Pattern(kWorkingSet * kBlockSize)).ok() ||
      !files.FlushAll().ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  Rng rng(5);
  std::vector<std::uint8_t> out(kBlockSize);
  auto read_random = [&] {
    return files.Read(*file, rng.Below(kWorkingSet) * kBlockSize, out).ok();
  };
  for (auto _ : state) {
    ColdCaches(facility);
    for (int i = 0; i < kWarm; ++i) {
      if (!read_random()) {
        state.SkipWithError("read failed");
        return;
      }
    }
    facility.disks().ResetStats();
    files.ResetStats();
    const SimTime t0 = facility.clock().Now();
    for (int i = 0; i < kReads; ++i) {
      if (!read_random()) {
        state.SkipWithError("read failed");
        return;
      }
    }
    const disk::DiskServer& disk = *facility.disks().disks().front();
    state.counters["platter_refs_per_read"] =
        static_cast<double>(TotalReadRefs(facility)) / kReads;
    state.counters["pool_hit_rate"] =
        static_cast<double>(files.stats().cache_hits) / kReads;
    state.counters["track_hit_rate"] = disk.cache_stats().HitRate();
    state.counters["sim_ms_per_read"] =
        SimMillis(facility.clock().Now() - t0) / kReads;
  }
}
BENCHMARK(BM_PoolOverTrackCache_RandomRereads)->Iterations(1);

}  // namespace
}  // namespace rhodos::bench

RHODOS_BENCH_MAIN();
