// Striped media store: a large file partitioned across several disks.
//
// "A file can be partitioned and therefore its contents can reside on more
// than one disk. Thus, the size of a file can be as large as the total
// space available on all the disks" (paper §7). This example stores a
// "video" far larger than any single disk could comfortably host, spreads
// its extents over 4 spindles, and shows how the simulated transfer time
// falls as more disks serve the sequential read.
//
// Build & run:  ./build/examples/striped_media_store
#include <cstdio>
#include <algorithm>
#include <vector>

#include "core/facility.h"

using namespace rhodos;

namespace {

std::vector<std::uint8_t> Frame(std::size_t n, std::uint32_t frame_no) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(frame_no * 131 + i * 7);
  }
  return v;
}

}  // namespace

int main() {
  constexpr std::size_t kVideoBytes = 8ull * 1024 * 1024;  // 8 MiB "video"
  constexpr std::uint32_t kFrameBytes = 64 * 1024;

  for (std::uint32_t disks : {1u, 2u, 4u}) {
    core::FacilityConfig config;
    config.disk_count = disks;
    config.geometry.total_fragments = 16 * 1024;  // 32 MiB per disk
    config.file.extent_blocks = 16;               // 128 KiB stripe unit
    config.file.extend_in_place = disks == 1;     // stripe when we can
    core::DistributedFileFacility facility(config);
    core::Machine& m = facility.AddMachine();

    auto od = m.file_agent->Create(naming::ByName("video.bin"),
                                   file::ServiceType::kBasic);
    if (!od.ok()) return 1;

    // Ingest the stream frame by frame.
    for (std::uint32_t f = 0; f * kFrameBytes < kVideoBytes; ++f) {
      auto frame = Frame(kFrameBytes, f);
      if (!m.file_agent->Write(*od, frame).ok()) return 1;
    }
    if (!m.file_agent->Close(*od).ok()) return 1;

    // Play it back sequentially through a fresh machine (cold client
    // cache) and measure the simulated disk time.
    core::Machine& viewer = facility.AddMachine();
    auto vod = viewer.file_agent->Open(naming::ByName("video.bin"));
    if (!vod.ok()) return 1;
    facility.ResetStats();
    const SimTime start = facility.clock().Now();
    std::vector<std::uint8_t> playback(kFrameBytes);
    std::size_t bytes = 0;
    while (true) {
      auto n = viewer.file_agent->Read(*vod, playback);
      if (!n.ok() || *n == 0) break;
      bytes += *n;
    }
    const SimTime elapsed = facility.clock().Now() - start;

    // Verify the first frame round-tripped.
    const bool intact =
        viewer.file_agent->Lseek(*vod, 0, agent::SeekWhence::kSet).ok() &&
        viewer.file_agent->Read(*vod, playback).ok() &&
        playback == Frame(kFrameBytes, 0);

    std::uint64_t refs = 0;
    std::uint32_t disks_serving = 0;
    double busiest_ms = 0;  // the critical path if spindles run in parallel
    for (const auto& d : facility.disks().disks()) {
      refs += d->main_stats().read_references;
      if (d->main_stats().read_references > 0) ++disks_serving;
      busiest_ms = std::max(
          busiest_ms,
          static_cast<double>(d->main_stats().time_charged) /
              kSimMillisecond);
    }
    (void)elapsed;
    std::printf(
        "%u disk(s): streamed %zu MiB; busiest spindle %.0f simulated ms "
        "(%llu disk refs across %u spindles, data %s)\n",
        disks, bytes / (1024 * 1024), busiest_ms,
        static_cast<unsigned long long>(refs), disks_serving,
        intact ? "intact" : "CORRUPT");
  }
  std::printf("\nMore spindles -> extents interleave across disks, each "
              "arm serves a fraction of the file, and the parallel "
              "completion time (the busiest spindle) falls.\n");
  return 0;
}
