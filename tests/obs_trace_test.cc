// TraceRecorder unit tests plus the cross-layer integration check: a
// client operation traced through the assembled facility must cross
// exactly the layers Figure 1 draws for it.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/sim_clock.h"
#include "core/facility.h"

namespace rhodos::obs {
namespace {

TEST(TraceRecorder, DisabledRecorderRecordsNothing) {
  SimClock clock;
  TraceRecorder tr(&clock);
  EXPECT_EQ(tr.StartTrace("agent", "write"), 0u);
  EXPECT_EQ(tr.BeginSpan("rpc", "call"), kNoSpan);
  EXPECT_EQ(tr.TraceCount(), 0u);
}

// Span sites run on real threads (the lock-manager benches) while another
// thread may flip tracing on and off. Sites read the enabled flag without
// the recorder's mutex, so the flag must be atomic; a thread-sanitizer
// build of this test reports the race if it is not.
TEST(TraceRecorder, SpanSitesRaceEnableSafely) {
  SimClock clock;
  TraceRecorder tr(&clock, /*capacity=*/4);
  std::atomic<bool> stop{false};
  std::vector<std::thread> sites;
  for (int t = 0; t < 3; ++t) {
    sites.emplace_back([&tr, &stop] {
      while (!stop) SpanScope span(&tr, "lock", "wait");
    });
  }
  for (int i = 0; i < 200; ++i) {
    tr.Enable(i % 2 == 0);
    const TraceId id = tr.StartTrace("bench", "round");
    if (id != 0) tr.EndSpan(tr.GetTrace(id).spans.front().id);
  }
  stop = true;
  for (auto& site : sites) site.join();
  EXPECT_EQ(tr.TraceCount(), 4u);
  EXPECT_FALSE(tr.TraceActive());
}

TEST(TraceRecorder, SpanTreeWithSimTimes) {
  SimClock clock;
  TraceRecorder tr(&clock);
  tr.Enable(true);

  const TraceId id = tr.StartTrace("agent", "write");
  clock.Advance(kSimMillisecond);
  const SpanId rpc = tr.BeginSpan("rpc", "call");
  const SpanId bus = tr.BeginSpan("bus", "exchange");
  clock.Advance(2 * kSimMillisecond);
  tr.EndSpan(bus, "file-service ok");
  tr.EndSpan(rpc);
  clock.Advance(kSimMillisecond);
  // Close the root (spans.front() of the trace).
  tr.EndSpan(tr.GetTrace(id).spans.front().id);

  const Trace t = tr.GetTrace(id);
  ASSERT_EQ(t.spans.size(), 3u);
  EXPECT_TRUE(t.done);
  EXPECT_EQ(t.spans[0].parent, kNoSpan);
  EXPECT_EQ(t.spans[1].parent, t.spans[0].id);  // rpc under agent
  EXPECT_EQ(t.spans[2].parent, t.spans[1].id);  // bus under rpc
  EXPECT_EQ(t.spans[2].detail, "file-service ok");
  EXPECT_EQ(t.spans[1].start, kSimMillisecond);
  EXPECT_EQ(t.spans[1].end, 3 * kSimMillisecond);
  EXPECT_EQ(t.spans[0].end, 4 * kSimMillisecond);

  EXPECT_EQ(tr.LayerSequence(id),
            (std::vector<std::string>{"agent.write", "rpc.call",
                                      "bus.exchange"}));
}

TEST(TraceRecorder, EndingAParentClosesAbandonedChildren) {
  SimClock clock;
  TraceRecorder tr(&clock);
  tr.Enable(true);
  const TraceId id = tr.StartTrace("agent", "open");
  const SpanId rpc = tr.BeginSpan("rpc", "call");
  (void)tr.BeginSpan("bus", "exchange");  // never explicitly ended
  clock.Advance(kSimMillisecond);
  tr.EndSpan(rpc);  // must unwind the bus span too

  const SpanId next = tr.BeginSpan("rpc", "retry");
  const Trace t = tr.GetTrace(id);
  // The new span nests under the root, not under the dead bus span.
  ASSERT_EQ(t.spans.size(), 4u);
  EXPECT_EQ(t.spans[3].id, next);
  EXPECT_EQ(t.spans[3].parent, t.spans[0].id);
  EXPECT_EQ(t.spans[2].end, kSimMillisecond);  // closed by the unwind
}

TEST(TraceRecorder, NestedOpJoinsTheActiveTrace) {
  SimClock clock;
  TraceRecorder tr(&clock);
  tr.Enable(true);
  {
    OpScope outer(&tr, "txn_agent", "twrite");
    OpScope inner(&tr, "agent", "pwrite");  // nested entry point
    SpanScope leaf(&tr, "file", "write");
  }
  EXPECT_EQ(tr.TraceCount(), 1u);
  EXPECT_EQ(tr.LayerSequence(tr.LatestTraceId()),
            (std::vector<std::string>{"txn_agent.twrite", "agent.pwrite",
                                      "file.write"}));
}

TEST(TraceRecorder, BoundedCapacityDropsOldestTrace) {
  SimClock clock;
  TraceRecorder tr(&clock, /*capacity=*/2);
  tr.Enable(true);
  for (int i = 0; i < 3; ++i) {
    OpScope op(&tr, "agent", "read");
  }
  EXPECT_EQ(tr.TraceCount(), 2u);
  EXPECT_EQ(tr.GetTrace(1).spans.size(), 0u);  // evicted
  EXPECT_EQ(tr.GetTrace(3).spans.size(), 1u);
}

TEST(TraceRecorder, RenderShowsTheLayerTree) {
  SimClock clock;
  TraceRecorder tr(&clock);
  tr.Enable(true);
  {
    OpScope op(&tr, "agent", "pread");
    clock.Advance(kSimMillisecond);
    SpanScope rpc(&tr, "rpc", "call");
    rpc.SetDetail("file-service ok");
  }
  const std::string tree = tr.Render(tr.LatestTraceId());
  EXPECT_NE(tree.find("agent.pread"), std::string::npos);
  EXPECT_NE(tree.find("rpc.call"), std::string::npos);
  EXPECT_NE(tree.find("file-service ok"), std::string::npos);
}

// --- Cross-layer integration: the facility's own instrumentation ----------------

core::FacilityConfig WriteThroughConfig() {
  core::FacilityConfig config;
  config.disk_count = 2;
  config.geometry.total_fragments = 4 * 1024;
  config.agent.delayed_write = false;  // every write descends to the server
  return config;
}

TEST(FacilityTracing, AgentWriteCrossesExactlyTheFigure1Layers) {
  core::DistributedFileFacility f(WriteThroughConfig());
  core::Machine& m = f.AddMachine();

  auto od = m.file_agent->Create(naming::AttributedName{{"name", "t"}},
                                 file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());

  f.observability().tracer.Enable(true);
  const std::uint8_t data[64] = {1, 2, 3};
  ASSERT_TRUE(m.file_agent->Pwrite(*od, 0, data).ok());

  // Write-through: client agent -> rpc -> bus -> server dispatch -> file
  // service block work. No disk span: the service's delayed-write cache
  // absorbs the block (the paper's layered-cache argument, visible).
  EXPECT_EQ(f.observability().tracer.LayerSequence(
                f.observability().tracer.LatestTraceId()),
            (std::vector<std::string>{"agent.pwrite", "rpc.call",
                                      "bus.exchange", "service.pwrite",
                                      "file.write"}));
}

TEST(FacilityTracing, ReplicatedWriteFansOutToEveryReplica) {
  core::DistributedFileFacility f(WriteThroughConfig());

  auto group = f.replication().CreateReplicated(file::ServiceType::kBasic,
                                                /*replica_count=*/2);
  ASSERT_TRUE(group.ok());

  f.observability().tracer.Enable(true);
  const std::uint8_t data[32] = {9};
  ASSERT_TRUE(f.replication().Write(*group, 0, data).ok());

  // Write-all over two replicas: one root, one file-service write each.
  EXPECT_EQ(f.observability().tracer.LayerSequence(
                f.observability().tracer.LatestTraceId()),
            (std::vector<std::string>{"replication.write", "file.write",
                                      "file.write"}));
}

TEST(FacilityTracing, TracingOffByDefaultAndCostsNothing) {
  core::DistributedFileFacility f(WriteThroughConfig());
  core::Machine& m = f.AddMachine();
  auto od = m.file_agent->Create(naming::AttributedName{{"name", "q"}},
                                 file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  EXPECT_EQ(f.observability().tracer.TraceCount(), 0u);
}

}  // namespace
}  // namespace rhodos::obs
