// Shared helpers for the RHODOS benchmark harness.
//
// Every bench binary regenerates one row-set of the paper's evaluation (see
// DESIGN.md §4). The interesting columns are mostly *simulated* costs —
// disk references, seeks, simulated microseconds, messages — reported as
// google-benchmark counters; wall-clock time matters only for the genuine
// CPU microbenchmarks (free-space allocation, lock tables).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/facility.h"
#include "obs/metrics.h"
#include "sim/parallel.h"

namespace rhodos::bench {

// Writes `registry`'s snapshot to <argv0>.metrics.json. Every bench binary
// emits this file (see EXPERIMENTS.md): the drained metrics of every
// facility the bench constructed, aggregated.
inline void WriteMetricsJson(const char* argv0,
                             const obs::MetricsRegistry& registry) {
  const std::string path = std::string(argv0) + ".metrics.json";
  std::ofstream out(path);
  out << registry.Snapshot().ToJson() << '\n';
  out.close();
  std::fprintf(stderr, "metrics written to %s\n", path.c_str());
}

}  // namespace rhodos::bench

// Drop-in replacement for BENCHMARK_MAIN(): installs a process-wide
// metrics drain so every facility a bench builds contributes its final
// StatsSnapshot(), then writes <binary>.metrics.json on exit, with the
// process's lane conflicts (sim::LaneConflicts) as `sim.lane_conflicts`.
#define RHODOS_BENCH_MAIN()                                                  \
  int main(int argc, char** argv) {                                          \
    rhodos::obs::MetricsRegistry rhodos_bench_drain;                         \
    rhodos::obs::SetGlobalMetricsDrain(&rhodos_bench_drain);                 \
    ::benchmark::Initialize(&argc, argv);                                    \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;      \
    ::benchmark::RunSpecifiedBenchmarks();                                   \
    ::benchmark::Shutdown();                                                 \
    rhodos::obs::SetGlobalMetricsDrain(nullptr);                             \
    rhodos_bench_drain.SetCounter("sim.lane_conflicts",                      \
                                  rhodos::sim::LaneConflicts());             \
    rhodos::bench::WriteMetricsJson(argv[0], rhodos_bench_drain);            \
    return 0;                                                                \
  }                                                                          \
  int rhodos_bench_main_requires_semicolon_

namespace rhodos::bench {

inline std::vector<std::uint8_t> Pattern(std::size_t n,
                                         std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return v;
}

inline core::FacilityConfig DefaultFacility(std::uint32_t disks = 1,
                                            std::uint64_t fragments =
                                                64 * 1024) {
  core::FacilityConfig c;
  c.disk_count = disks;
  c.geometry.total_fragments = fragments;  // 128 MiB per disk by default
  c.geometry.fragments_per_track = 32;
  return c;
}

// Sum of main-device read references across all disks.
inline std::uint64_t TotalReadRefs(core::DistributedFileFacility& f) {
  std::uint64_t n = 0;
  for (const auto& d : f.disks().disks()) {
    n += d->main_stats().read_references;
  }
  return n;
}

inline std::uint64_t TotalWriteRefs(core::DistributedFileFacility& f) {
  std::uint64_t n = 0;
  for (const auto& d : f.disks().disks()) {
    n += d->main_stats().write_references;
  }
  return n;
}

inline std::uint64_t TotalSeekTracks(core::DistributedFileFacility& f) {
  std::uint64_t n = 0;
  for (const auto& d : f.disks().disks()) {
    n += d->main_stats().tracks_seeked;
  }
  return n;
}

// Drops every volatile cache between the client and the platters, so the
// next access is a genuinely cold read.
inline void ColdCaches(core::DistributedFileFacility& f) {
  f.files().Crash();
  for (const auto& d : f.disks().disks()) {
    d->Crash();
    (void)d->Recover();
  }
}

inline double SimMillis(SimTime t) {
  return static_cast<double>(t) / kSimMillisecond;
}

}  // namespace rhodos::bench
