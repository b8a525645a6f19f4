// MetricsRegistry unit tests: bucket boundaries, schema stability across
// Reset, merge semantics, thread safety (the lock manager feeds the
// registry from real concurrent threads), the stats-table fold, and the
// facility's metric names against the golden schema and the docs.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/sim_clock.h"
#include "core/facility.h"

namespace rhodos::obs {
namespace {

TEST(MetricsRegistry, CountersAddAndSet) {
  MetricsRegistry r;
  r.Add("layer.events");
  r.Add("layer.events", 4);
  EXPECT_EQ(r.CounterValue("layer.events"), 5u);

  // SetCounter is the idempotent pull path: re-pulling a layer's stats
  // struct must not double count.
  r.SetCounter("layer.pulled", 7);
  r.SetCounter("layer.pulled", 7);
  EXPECT_EQ(r.CounterValue("layer.pulled"), 7u);

  EXPECT_EQ(r.CounterValue("layer.never_touched"), 0u);
}

TEST(MetricsRegistry, GaugeTakesLastValue) {
  MetricsRegistry r;
  r.SetGauge("facility.machines", 2.0);
  r.SetGauge("facility.machines", 5.0);
  EXPECT_DOUBLE_EQ(r.GaugeValue("facility.machines"), 5.0);
}

TEST(MetricsRegistry, HistogramBucketBoundaries) {
  MetricsRegistry r;
  // A value exactly ON a bucket's upper bound belongs to that bucket
  // (counts[i] = observations <= kLatencyBuckets[i]).
  r.Observe("op.latency_ns", kLatencyBuckets[0]);      // bucket 0
  r.Observe("op.latency_ns", kLatencyBuckets[0] + 1);  // bucket 1
  r.Observe("op.latency_ns", 0);                       // bucket 0
  r.Observe("op.latency_ns", kLatencyBuckets[kLatencyBucketCount - 1]);
  r.Observe("op.latency_ns",
            kLatencyBuckets[kLatencyBucketCount - 1] + 1);  // +inf bucket

  const HistogramData h = r.HistogramValue("op.latency_ns");
  ASSERT_EQ(h.counts.size(), kLatencyBucketCount + 1);
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[kLatencyBucketCount - 1], 1u);
  EXPECT_EQ(h.counts[kLatencyBucketCount], 1u);  // the +inf overflow cell
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.sum, 0 + (kLatencyBuckets[0] * 2 + 1) +
                       (kLatencyBuckets[kLatencyBucketCount - 1] * 2 + 1));
}

TEST(MetricsRegistry, DeclaredNamesSurviveReset) {
  MetricsRegistry r;
  r.DeclareCounter("a.counter");
  r.DeclareGauge("a.gauge");
  r.DeclareHistogram("a.hist");
  r.Add("a.counter", 9);
  r.SetGauge("a.gauge", 3.0);
  r.Observe("a.hist", kSimMillisecond);

  const auto before = r.Snapshot().Names();
  r.Reset();
  const auto after = r.Snapshot().Names();

  // The schema is the same set of (name, kind) pairs; only values zero.
  EXPECT_EQ(before, after);
  EXPECT_EQ(r.CounterValue("a.counter"), 0u);
  EXPECT_DOUBLE_EQ(r.GaugeValue("a.gauge"), 0.0);
  EXPECT_EQ(r.HistogramValue("a.hist").count, 0u);
}

TEST(MetricsRegistry, SnapshotIsSortedByName) {
  MetricsRegistry r;
  r.Add("z.last");
  r.Add("a.first");
  r.Add("m.middle");
  const MetricsSnapshot snap = r.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "a.first");
  EXPECT_EQ(snap.counters[1].first, "m.middle");
  EXPECT_EQ(snap.counters[2].first, "z.last");
}

TEST(MetricsRegistry, MergeSumsCountersAndHistograms) {
  MetricsRegistry a;
  a.Add("x.count", 3);
  a.Observe("x.lat", kSimMillisecond);
  a.SetGauge("x.gauge", 1.0);

  MetricsRegistry b;
  b.Add("x.count", 4);
  b.Add("y.only_in_b", 2);
  b.Observe("x.lat", 2 * kSimMillisecond);
  b.SetGauge("x.gauge", 9.0);

  a.Merge(b.Snapshot());
  EXPECT_EQ(a.CounterValue("x.count"), 7u);
  EXPECT_EQ(a.CounterValue("y.only_in_b"), 2u);
  EXPECT_EQ(a.HistogramValue("x.lat").count, 2u);
  EXPECT_EQ(a.HistogramValue("x.lat").sum, 3 * kSimMillisecond);
  // Gauges are point-in-time: the incoming value wins.
  EXPECT_DOUBLE_EQ(a.GaugeValue("x.gauge"), 9.0);
}

TEST(MetricsRegistry, TextAndJsonRenderDeclaredMetrics) {
  MetricsRegistry r;
  r.Add("bus.calls", 11);
  r.SetGauge("disk.free_fragments", 42.0);
  r.Observe("agent.op_latency_ns", kSimMillisecond);

  const MetricsSnapshot snap = r.Snapshot();
  const std::string text = snap.ToText();
  EXPECT_NE(text.find("bus.calls = 11"), std::string::npos);
  EXPECT_NE(text.find("disk.free_fragments"), std::string::npos);
  EXPECT_NE(text.find("agent.op_latency_ns"), std::string::npos);

  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"bus.calls\":11"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreNotLost) {
  // The one genuinely multi-threaded corner: lock-manager waiters feeding
  // wait-time and grant counts while benches snapshot concurrently.
  MetricsRegistry r;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r] {
      for (int i = 0; i < kPerThread; ++i) {
        r.Add("lock.grants");
        r.Observe("lock.wait_ns", kSimMicrosecond);
        (void)r.Snapshot();  // readers race the writers
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(r.CounterValue("lock.grants"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(r.HistogramValue("lock.wait_ns").count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, GlobalDrainHook) {
  MetricsRegistry drain;
  SetGlobalMetricsDrain(&drain);
  EXPECT_EQ(GlobalMetricsDrain(), &drain);
  SetGlobalMetricsDrain(nullptr);
  EXPECT_EQ(GlobalMetricsDrain(), nullptr);
}

struct ToyStats {
  std::uint64_t events = 0;
  SimTime busy = 0;
};
constexpr CounterField<ToyStats> kToyCounters[] = {
    {"toy.events", &ToyStats::events},
    {"toy.busy_ns", &ToyStats::busy},
};
constexpr CounterField<ToyStats> kOtherToyCounters[] = {
    {"toy.events", &ToyStats::events},
};
constexpr CounterField<ToyStats> kIdleToyCounters[] = {
    {"toy.idle", &ToyStats::events},
};

TEST(CounterFold, SumsRowsAcrossInstancesAndTables) {
  std::vector<std::unique_ptr<ToyStats>> instances;
  instances.push_back(std::make_unique<ToyStats>(ToyStats{2, 5}));
  instances.push_back(std::make_unique<ToyStats>(ToyStats{3, 7}));
  const std::vector<std::unique_ptr<ToyStats>> none;
  const auto self = [](const ToyStats& s) -> auto& { return s; };
  CounterFold fold;
  fold.Sum(kToyCounters, instances, self);
  // A row name shared by two tables adds both tables' sums.
  fold.Sum(kOtherToyCounters, ToyStats{10, 0});
  // A row summed over no instance is still set, so it stays in the schema.
  fold.Sum(kIdleToyCounters, none, self);
  MetricsRegistry r;
  r.SetCounter("toy.events", 99);  // a re-pull overwrites, never adds
  fold.SetCounters(r);
  EXPECT_EQ(r.CounterValue("toy.events"), 15u);
  EXPECT_EQ(r.CounterValue("toy.busy_ns"), 12u);
  const auto names = r.Snapshot().Names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[2].first, "toy.idle");
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// The facility's metric names are a documented interface: they must match
// docs/metrics_schema.golden line for line, and docs/OBSERVABILITY.md must
// mention every one. An empty facility carries the complete name set.
TEST(MetricsSchema, FacilityNamesMatchGoldenFileAndDocs) {
  const std::string docs = RHODOS_DOCS_DIR;
  const std::string golden = ReadFile(docs + "/metrics_schema.golden");
  const std::string observability = ReadFile(docs + "/OBSERVABILITY.md");
  ASSERT_FALSE(golden.empty()) << "cannot read " << docs;
  ASSERT_FALSE(observability.empty()) << "cannot read " << docs;

  core::DistributedFileFacility facility;
  std::string live;
  for (const auto& [name, kind] : facility.StatsSnapshot().Names()) {
    live += name + " " + kind + "\n";
    EXPECT_NE(observability.find(name), std::string::npos)
        << name << " is not documented in docs/OBSERVABILITY.md";
  }
  EXPECT_EQ(live, golden)
      << "the metric schema drifted from docs/metrics_schema.golden";
}

}  // namespace
}  // namespace rhodos::obs
