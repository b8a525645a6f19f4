// Metrics registry — the facility's counting arguments as a queryable
// surface.
//
// The paper's evaluation is made of counting arguments: disk references
// saved per layer of caching, messages per operation, locks managed per
// granularity. Until now those counters lived as ad-hoc stats structs on
// each layer (sim::DiskStats, sim::NetStats, ...). The MetricsRegistry
// gives them one home and one naming scheme — `layer.metric` — so every
// quantitative claim in DESIGN.md §4 is a name you can query at runtime
// and a line in `DumpStats()` output.
//
// Three instrument kinds:
//   * counter   — monotonically increasing uint64 (events, bytes);
//   * gauge     — a point-in-time value (free fragments, machine count);
//   * histogram — fixed-bucket latency distribution over *simulated*
//                 nanoseconds, so bucket counts are exactly reproducible
//                 run to run (no wall-clock jitter).
//
// The registry is thread safe: the lock manager's wait-time accounting is
// fed from real concurrent threads (the one genuinely multi-threaded
// corner of the facility), and the E8/E9 benches hammer it.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_clock.h"

namespace rhodos::obs {

// Upper bucket bounds for latency histograms, in simulated nanoseconds.
// Chosen around the disk/network cost model: the smallest bucket holds
// cache hits (double-digit µs), the middle ones single disk references
// (6–15 ms), the top ones retry storms and repair sweeps.
inline constexpr SimTime kLatencyBuckets[] = {
    100 * kSimMicrosecond, 500 * kSimMicrosecond, 1 * kSimMillisecond,
    2 * kSimMillisecond,   5 * kSimMillisecond,   10 * kSimMillisecond,
    20 * kSimMillisecond,  50 * kSimMillisecond,  100 * kSimMillisecond,
    500 * kSimMillisecond, 1 * kSimSecond,
};
inline constexpr std::size_t kLatencyBucketCount =
    sizeof(kLatencyBuckets) / sizeof(kLatencyBuckets[0]);

struct HistogramData {
  // counts[i] = observations <= kLatencyBuckets[i]; counts.back() = +inf.
  std::vector<std::uint64_t> counts =
      std::vector<std::uint64_t>(kLatencyBucketCount + 1, 0);
  std::uint64_t count = 0;
  SimTime sum = 0;
};

// A point-in-time copy of the whole registry, sorted by name (the
// deterministic order the golden-schema check depends on).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramData>> histograms;

  // Every metric name, sorted, one kind marker each ("counter" / "gauge" /
  // "histogram") — the documented interface surface.
  std::vector<std::pair<std::string, std::string>> Names() const;

  // `name = value` lines (histograms as count/sum/buckets), sorted.
  std::string ToText() const;
  // One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Declaration ----------------------------------------------------------
  // Declaring pins a metric into every snapshot even at value zero, which
  // is what keeps the DumpStats() schema identical across workloads. Add /
  // Set / Observe auto-declare, so declaration is only needed for metrics
  // that may never fire.
  void DeclareCounter(std::string_view name);
  void DeclareGauge(std::string_view name);
  void DeclareHistogram(std::string_view name);

  // --- Recording ------------------------------------------------------------

  // Counter increment (push-style instrumentation sites).
  void Add(std::string_view name, std::uint64_t delta = 1);
  // Counter absolute set: used when folding a layer's own cumulative stats
  // struct into the registry (idempotent re-pull).
  void SetCounter(std::string_view name, std::uint64_t value);
  void SetGauge(std::string_view name, double value);
  // One histogram observation (simulated nanoseconds).
  void Observe(std::string_view name, SimTime value);

  // --- Reading --------------------------------------------------------------

  std::uint64_t CounterValue(std::string_view name) const;
  double GaugeValue(std::string_view name) const;
  HistogramData HistogramValue(std::string_view name) const;

  MetricsSnapshot Snapshot() const;

  // Adds a snapshot into this registry: counters and histogram cells sum,
  // gauges take the incoming value. The bench harness drains every
  // facility's final snapshot into one process-wide registry this way.
  void Merge(const MetricsSnapshot& snap);

  // Zeroes every declared metric (names survive — the schema is stable
  // across Reset).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, HistogramData, std::less<>> histograms_;
};

// --- Pull-model stats tables -------------------------------------------------
//
// A layer exports its cumulative *Stats struct through one constexpr table
// declared next to the struct. Each row pairs a metric name with the field
// it reads, so the row is the only place a pulled counter is named.
template <typename Stats>
struct CounterField {
  constexpr CounterField(std::string_view n, std::uint64_t Stats::*f)
      : name(n), count(f) {}
  // SimTime fields, exported as `*_ns`.
  constexpr CounterField(std::string_view n, SimTime Stats::*f)
      : name(n), time(f) {}

  std::uint64_t Read(const Stats& s) const {
    return count != nullptr ? s.*count : static_cast<std::uint64_t>(s.*time);
  }

  std::string_view name;
  std::uint64_t Stats::*count = nullptr;
  SimTime Stats::*time = nullptr;
};

// Sums stats tables over layer instances (machines, shards, disks), then
// sets every sum as a counter. Rows of two tables may share a name; their
// sums add. Every row is set even when it sums over no instance, so the
// counter schema does not depend on how many machines a facility has.
class CounterFold {
 public:
  // One instance.
  template <typename Stats, std::size_t N>
  void Sum(const CounterField<Stats> (&table)[N], const Stats& stats) {
    for (const CounterField<Stats>& row : table) {
      sums_[row.name] += row.Read(stats);
    }
  }

  // Every instance a range of (smart) pointers points to; `stats_of` (a
  // member function or a callable) yields an instance's Stats.
  template <typename Stats, std::size_t N, typename Range, typename Proj>
  void Sum(const CounterField<Stats> (&table)[N], const Range& instances,
           Proj stats_of) {
    std::array<std::uint64_t*, N> sums{};
    for (std::size_t i = 0; i < N; ++i) sums[i] = &sums_[table[i].name];
    for (const auto& instance : instances) {
      const Stats& s = std::invoke(stats_of, *instance);
      for (std::size_t i = 0; i < N; ++i) *sums[i] += table[i].Read(s);
    }
  }

  void SetCounters(MetricsRegistry& registry) const;

 private:
  std::map<std::string_view, std::uint64_t> sums_;
};

// Process-wide drain hook: when set, every DistributedFileFacility merges
// its final StatsSnapshot() into `registry` at destruction. The bench
// harness sets this so `bench_*.metrics.json` aggregates every facility a
// bench constructed; tests and examples leave it unset.
void SetGlobalMetricsDrain(MetricsRegistry* registry);
MetricsRegistry* GlobalMetricsDrain();

}  // namespace rhodos::obs
