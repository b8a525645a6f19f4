// Tests for the batched/overlapped I/O layer: vectored get/put with
// per-disk elevator scheduling (disk service), the overlapped multi-disk
// time accounting (sim::ParallelSection), and the file service's
// sequential read-ahead.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/sim_clock.h"
#include "disk/disk_registry.h"
#include "disk/disk_server.h"
#include "file/file_service.h"
#include "obs/observability.h"
#include "sim/disk_model.h"
#include "sim/parallel.h"

namespace rhodos {
namespace {

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return v;
}

// --- sim::ParallelSection ----------------------------------------------------

TEST(ParallelSection, TwoLanesCostTheMaxPlusDispatchNotTheSum) {
  SimClock clock;
  clock.Advance(1000);
  const SimTime fork = clock.Now();
  sim::ParallelSection section(&clock);
  section.BeginLane();
  clock.Advance(5 * kSimMillisecond);  // slow lane
  section.EndLane();
  section.BeginLane();
  clock.Advance(2 * kSimMillisecond);  // fast lane
  section.EndLane();
  section.Commit();
  EXPECT_EQ(clock.Now(),
            fork + 5 * kSimMillisecond + 2 * sim::kLaneDispatchCost);
}

TEST(ParallelSection, CommitIsIdempotentAndNeverRewindsPastTheFork) {
  SimClock clock;
  clock.Advance(777);
  const SimTime fork = clock.Now();
  {
    sim::ParallelSection section(&clock);
    section.BeginLane();
    section.EndLane();  // zero-cost lane
    section.Commit();
    section.Commit();
    EXPECT_EQ(clock.Now(), fork + sim::kLaneDispatchCost);
  }  // destructor commits again — no further movement
  EXPECT_EQ(clock.Now(), fork + sim::kLaneDispatchCost);
}

TEST(ParallelSection, SectionsNestWithoutMovingTimeBackwards) {
  SimClock clock;
  sim::ParallelSection outer(&clock);
  outer.BeginLane();
  {
    sim::ParallelSection inner(&clock);
    inner.BeginLane();
    clock.Advance(3 * kSimMillisecond);
    inner.EndLane();
    inner.Commit();
  }
  outer.EndLane();
  outer.BeginLane();
  clock.Advance(1 * kSimMillisecond);
  outer.EndLane();
  outer.Commit();
  EXPECT_GE(clock.Now(), 3 * kSimMillisecond);
}

// Lanes must own disjoint devices: the model has no per-device occupancy,
// so a device referenced from two lanes would serve both at once.
TEST(ParallelSection, AuditCountsADeviceReferencedFromTwoLanes) {
  SimClock clock;
  sim::DiskGeometry g;
  sim::DiskModel a(g, &clock), b(g, &clock);
  std::vector<std::uint8_t> frag(kFragmentSize, 7);
  const std::uint64_t before = sim::LaneConflicts();
  {
    sim::ParallelSection section(&clock);
    section.BeginLane();
    ASSERT_TRUE(a.WriteFragments(0, 1, frag).ok());
    ASSERT_TRUE(a.WriteFragments(1, 1, frag).ok());  // same lane: fine
    section.EndLane();
    section.BeginLane();
    ASSERT_TRUE(b.WriteFragments(0, 1, frag).ok());
    section.EndLane();
  }
  EXPECT_EQ(sim::LaneConflicts(), before);
  {
    sim::ParallelSection outer(&clock);
    outer.BeginLane();
    ASSERT_TRUE(a.WriteFragments(0, 1, frag).ok());
    outer.EndLane();
    outer.BeginLane();
    {
      // A nested section's lanes belong to the outer lane they run in.
      sim::ParallelSection inner(&clock);
      inner.BeginLane();
      ASSERT_TRUE(a.WriteFragments(2, 1, frag).ok());
      inner.EndLane();
    }
    outer.EndLane();
  }
  EXPECT_EQ(sim::LaneConflicts(), before + 1);
  // Outside any section nothing is audited.
  ASSERT_TRUE(a.WriteFragments(3, 1, frag).ok());
  EXPECT_EQ(sim::LaneConflicts(), before + 1);
}

TEST(PerDeviceFanOut, OneDeviceRunsInlineWithoutDispatchCost) {
  SimClock clock;
  sim::PerDeviceFanOut<int, SimTime> fan;
  fan.Add(0, 3 * kSimMillisecond);
  fan.Add(0, 2 * kSimMillisecond);
  auto lane = [&clock](int, const std::vector<SimTime>& costs) {
    for (SimTime c : costs) clock.Advance(c);
    return OkStatus();
  };
  ASSERT_TRUE(fan.Run(&clock, lane).ok());
  EXPECT_EQ(clock.Now(), 5 * kSimMillisecond);  // serial, no dispatch

  sim::PerDeviceFanOut<int, SimTime> two;
  two.Add(0, 3 * kSimMillisecond);
  two.Add(1, 4 * kSimMillisecond);
  two.Add(0, 2 * kSimMillisecond);
  const SimTime fork = clock.Now();
  ASSERT_TRUE(two.Run(&clock, lane).ok());
  EXPECT_EQ(clock.Now(),
            fork + 5 * kSimMillisecond + 2 * sim::kLaneDispatchCost);
}

TEST(PerDeviceFanOut, EveryLaneRunsAndTheFirstFailureIsReturned) {
  SimClock clock;
  sim::PerDeviceFanOut<int, int> fan;
  for (int d = 0; d < 3; ++d) fan.Add(d, d);
  std::vector<int> ran;
  const Status st = fan.Run(&clock, [&ran](int d, const std::vector<int>&) {
    ran.push_back(d);
    return d == 0 ? OkStatus() : Status{ErrorCode::kMediaError, "lane " +
                                                      std::to_string(d)};
  });
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2}));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().message, "lane 1");
}

// --- Vectored disk I/O --------------------------------------------------------

disk::DiskServerConfig VecConfig() {
  disk::DiskServerConfig c;
  c.geometry.total_fragments = 4096;
  c.geometry.fragments_per_track = 32;
  c.cache_capacity_tracks = 0;  // no track cache: count raw references
  c.track_readahead = false;
  return c;
}

class VectoredIoTest : public ::testing::Test {
 protected:
  SimClock clock_;
  disk::DiskServer server_{DiskId{0}, VecConfig(), &clock_};
};

TEST_F(VectoredIoTest, VectoredGetMatchesSingleCallsWithFewerReferences) {
  // Lay out three runs: two physically adjacent, one far away.
  auto a = server_.AllocateFragments(8);   // runs A and B adjacent
  ASSERT_TRUE(a.ok());
  const auto far = server_.AllocateFragments(512);  // spacer
  ASSERT_TRUE(far.ok());
  auto c = server_.AllocateFragments(4);
  ASSERT_TRUE(c.ok());

  const auto data = Pattern(12 * kFragmentSize);
  ASSERT_TRUE(server_
                  .PutBlock(*a, 8, {data.data(), 8 * kFragmentSize})
                  .ok());
  ASSERT_TRUE(server_
                  .PutBlock(*c, 4, {data.data() + 8 * kFragmentSize,
                                    4 * kFragmentSize})
                  .ok());

  // Reference: three single get_block calls.
  std::vector<std::uint8_t> single(12 * kFragmentSize);
  server_.ResetStats();
  ASSERT_TRUE(
      server_.GetBlock(*a, 4, {single.data(), 4 * kFragmentSize}).ok());
  ASSERT_TRUE(server_
                  .GetBlock(*a + 4, 4,
                            {single.data() + 4 * kFragmentSize,
                             4 * kFragmentSize})
                  .ok());
  ASSERT_TRUE(server_
                  .GetBlock(*c, 4,
                            {single.data() + 8 * kFragmentSize,
                             4 * kFragmentSize})
                  .ok());
  const std::uint64_t single_refs = server_.main_stats().read_references;

  // Same three runs as ONE vectored submission, scrambled arrival order.
  std::vector<std::uint8_t> vec(12 * kFragmentSize);
  const disk::ReadRun runs[] = {
      {*c, 4, {vec.data() + 8 * kFragmentSize, 4 * kFragmentSize}},
      {*a, 4, {vec.data(), 4 * kFragmentSize}},
      {*a + 4, 4, {vec.data() + 4 * kFragmentSize, 4 * kFragmentSize}},
  };
  server_.ResetStats();
  ASSERT_TRUE(server_.GetBlocksVec(runs).ok());

  EXPECT_EQ(vec, single);  // same bytes, caller's layout
  EXPECT_LT(server_.main_stats().read_references, single_refs);
  EXPECT_EQ(server_.vec_stats().requests, 1u);
  EXPECT_EQ(server_.vec_stats().runs, 3u);
  EXPECT_EQ(server_.vec_stats().merged_runs, 1u);  // A+B coalesced
  EXPECT_GT(server_.vec_stats().elevator_reorders, 0u);
}

TEST_F(VectoredIoTest, VectoredPutMatchesSingleCallsWithFewerReferences) {
  auto a = server_.AllocateFragments(8);
  ASSERT_TRUE(a.ok());
  const auto spacer = server_.AllocateFragments(512);
  ASSERT_TRUE(spacer.ok());
  auto c = server_.AllocateFragments(4);
  ASSERT_TRUE(c.ok());

  const auto data = Pattern(12 * kFragmentSize, 5);
  server_.ResetStats();
  const disk::WriteRun runs[] = {
      {*c, 4, {data.data() + 8 * kFragmentSize, 4 * kFragmentSize}},
      {*a + 4, 4, {data.data() + 4 * kFragmentSize, 4 * kFragmentSize}},
      {*a, 4, {data.data(), 4 * kFragmentSize}},
  };
  ASSERT_TRUE(server_.PutBlocksVec(runs).ok());
  // Two references: the coalesced [a, a+8) sweep and the far run.
  EXPECT_EQ(server_.main_stats().write_references, 2u);
  EXPECT_EQ(server_.vec_stats().merged_runs, 1u);

  // Read back through single calls — bytes landed where they should.
  std::vector<std::uint8_t> back(12 * kFragmentSize);
  ASSERT_TRUE(
      server_.GetBlock(*a, 8, {back.data(), 8 * kFragmentSize}).ok());
  ASSERT_TRUE(server_
                  .GetBlock(*c, 4,
                            {back.data() + 8 * kFragmentSize,
                             4 * kFragmentSize})
                  .ok());
  EXPECT_EQ(back, data);
}

TEST_F(VectoredIoTest, ElevatorServiceIsDeterministicAcrossIdenticalServers) {
  SimClock clock2;
  disk::DiskServer twin{DiskId{1}, VecConfig(), &clock2};

  // The same scrambled submission against two identically configured
  // servers must charge identical costs and identical counters.
  auto run_on = [](disk::DiskServer& s) {
    auto a = s.AllocateFragments(4);
    auto spacer = s.AllocateFragments(256);
    auto b = s.AllocateFragments(4);
    auto spacer2 = s.AllocateFragments(256);
    auto c = s.AllocateFragments(4);
    EXPECT_TRUE(a.ok() && spacer.ok() && b.ok() && spacer2.ok() && c.ok());
    std::vector<std::uint8_t> buf(12 * kFragmentSize);
    const disk::ReadRun runs[] = {
        {*b, 4, {buf.data(), 4 * kFragmentSize}},
        {*c, 4, {buf.data() + 4 * kFragmentSize, 4 * kFragmentSize}},
        {*a, 4, {buf.data() + 8 * kFragmentSize, 4 * kFragmentSize}},
    };
    s.ResetStats();
    EXPECT_TRUE(s.GetBlocksVec(runs).ok());
  };
  run_on(server_);
  run_on(twin);

  EXPECT_EQ(server_.main_stats().read_references,
            twin.main_stats().read_references);
  EXPECT_EQ(server_.main_stats().tracks_seeked,
            twin.main_stats().tracks_seeked);
  EXPECT_EQ(server_.main_stats().time_charged,
            twin.main_stats().time_charged);
  EXPECT_EQ(server_.vec_stats().elevator_reorders,
            twin.vec_stats().elevator_reorders);
}

TEST_F(VectoredIoTest, EmptyAndInvalidSubmissions) {
  EXPECT_TRUE(server_.GetBlocksVec({}).ok());
  EXPECT_TRUE(server_.PutBlocksVec({}).ok());
  std::vector<std::uint8_t> small(kFragmentSize);
  const disk::ReadRun bad[] = {{0, 4, small}};  // buffer too small
  EXPECT_EQ(server_.GetBlocksVec(bad).code(), ErrorCode::kInvalidArgument);
}

TEST_F(VectoredIoTest, OnlyMultiRunSubmissionsCountAsVectored) {
  auto a = server_.AllocateFragments(8);
  ASSERT_TRUE(a.ok());
  const auto data = Pattern(8 * kFragmentSize, 3);
  std::vector<std::uint8_t> back(8 * kFragmentSize);
  server_.ResetStats();

  // One run, through either entry point, is not a vectored submission.
  const disk::WriteRun one[] = {{*a, 8, data}};
  ASSERT_TRUE(server_.PutBlocksVec(one).ok());
  ASSERT_TRUE(server_.PutBlock(*a, 8, data).ok());
  ASSERT_TRUE(server_.GetBlock(*a, 8, back).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(server_.vec_stats().requests, 0u);
  EXPECT_EQ(server_.vec_stats().runs, 0u);
  EXPECT_EQ(server_.vec_stats().merged_runs, 0u);
  EXPECT_EQ(server_.vec_stats().elevator_reorders, 0u);

  // Two adjacent runs in reverse order: one reference, and it all counts.
  std::fill(back.begin(), back.end(), 0);
  const disk::ReadRun two[] = {
      {*a + 4, 4, {back.data() + 4 * kFragmentSize, 4 * kFragmentSize}},
      {*a, 4, {back.data(), 4 * kFragmentSize}},
  };
  const std::uint64_t refs = server_.main_stats().read_references;
  ASSERT_TRUE(server_.GetBlocksVec(two).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(server_.main_stats().read_references, refs + 1);
  EXPECT_EQ(server_.vec_stats().requests, 1u);
  EXPECT_EQ(server_.vec_stats().runs, 2u);
  EXPECT_EQ(server_.vec_stats().merged_runs, 1u);
  EXPECT_EQ(server_.vec_stats().elevator_reorders, 2u);
}

TEST(DiskSeekSamples, EveryPlatterReferenceSamplesOneSeek) {
  SimClock clock;
  obs::Observability o(&clock);
  disk::DiskServerConfig config = VecConfig();
  config.cache_capacity_tracks = 16;  // a track cache, so hits can happen
  disk::DiskServer server{DiskId{0}, config, &clock};
  server.SetObservability(&o);
  auto seeks = [&o] {
    return o.metrics.HistogramValue("disk.seek_ns").count;
  };
  auto a = server.AllocateFragments(4);
  ASSERT_TRUE(a.ok());
  const auto data = Pattern(4 * kFragmentSize, 9);
  std::vector<std::uint8_t> back(4 * kFragmentSize);

  ASSERT_TRUE(server.PutBlock(*a, 4, data).ok());  // write-through
  EXPECT_EQ(seeks(), 1u);
  server.Crash();  // drop the track cache; the platter keeps the data
  ASSERT_TRUE(server.Recover().ok());
  ASSERT_TRUE(server.GetBlock(*a, 4, back).ok());  // cache miss
  EXPECT_EQ(seeks(), 2u);
  EXPECT_EQ(back, data);

  // References that never reach the platter sample nothing: a track-cache
  // hit, a stable-only write.
  ASSERT_TRUE(server.GetBlock(*a, 4, back).ok());
  ASSERT_TRUE(
      server.PutBlock(*a, 4, data, disk::StableMode::kStableOnly).ok());
  EXPECT_EQ(seeks(), 2u);
}

// --- Overlapped multi-disk service -------------------------------------------

TEST(OverlappedIo, TwoDiskStripedReadBeatsTheSerialSum) {
  SimClock clock;
  disk::DiskRegistry disks;
  disk::DiskServerConfig dc;
  dc.geometry.total_fragments = 16 * 1024;
  disks.AddDisk(dc, &clock);
  disks.AddDisk(dc, &clock);

  file::FileServiceConfig fc;
  fc.extent_blocks = 16;
  fc.extend_in_place = false;  // force striping
  fc.readahead_blocks = 0;
  file::FileService files(&disks, &clock, fc);

  // A file striped over both disks, written and flushed, caches dropped.
  auto file = files.Create(file::ServiceType::kBasic, 0);
  ASSERT_TRUE(file.ok());
  const std::uint64_t bytes = 64 * kBlockSize;
  ASSERT_TRUE(files.Write(*file, 0, Pattern(bytes)).ok());
  ASSERT_TRUE(files.FlushAll().ok());
  files.Crash();
  for (const auto& d : disks.disks()) {
    d->Crash();
    ASSERT_TRUE(d->Recover().ok());
    d->ResetStats();
  }

  std::vector<std::uint8_t> out(bytes);
  const SimTime start = clock.Now();
  auto n = files.Read(*file, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, bytes);
  EXPECT_EQ(out, Pattern(bytes));
  const SimTime elapsed = clock.Now() - start;

  SimTime busy_sum = 0, busy_max = 0;
  for (const auto& d : disks.disks()) {
    busy_sum += d->main_stats().time_charged;
    busy_max = std::max(busy_max, d->main_stats().time_charged);
    EXPECT_GT(d->main_stats().read_references, 0u);  // both spindles used
  }
  // Overlap: elapsed tracks the busiest disk (plus dispatch), and beats
  // the serial sum of the two devices' busy times.
  EXPECT_LT(elapsed, busy_sum);
  EXPECT_GE(elapsed, busy_max);
}

// --- Sequential read-ahead ----------------------------------------------------

disk::DiskServerConfig RaDiskConfig() {
  disk::DiskServerConfig c;
  c.geometry.total_fragments = 8192;
  c.geometry.fragments_per_track = 32;
  c.cache_capacity_tracks = 16;
  return c;
}

class ReadAheadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disks_.AddDisk(RaDiskConfig(), &clock_);
    file::FileServiceConfig fc;
    fc.readahead_blocks = 8;
    service_ = std::make_unique<file::FileService>(&disks_, &clock_, fc);
    auto file = service_->Create(file::ServiceType::kBasic,
                                 kBlocks * kBlockSize);
    ASSERT_TRUE(file.ok());
    file_ = *file;
    ASSERT_TRUE(service_->Write(file_, 0, Pattern(kBlocks * kBlockSize))
                    .ok());
    ASSERT_TRUE(service_->FlushAll().ok());
    service_->Crash();  // drop the block cache: cold reads below
    service_->ResetStats();
  }

  static constexpr std::uint64_t kBlocks = 64;
  SimClock clock_;
  disk::DiskRegistry disks_;
  std::unique_ptr<file::FileService> service_;
  FileId file_;
};

TEST_F(ReadAheadTest, SequentialStreamHitsPrefetchedBlocks) {
  std::vector<std::uint8_t> out(kBlockSize);
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    auto n = service_->Read(file_, b * kBlockSize, out);
    ASSERT_TRUE(n.ok());
  }
  const auto& st = service_->stats();
  EXPECT_GT(st.readahead_issued, 0u);
  EXPECT_GT(st.readahead_hits, 0u);
  // A pure sequential scan consumes nearly everything it prefetches.
  EXPECT_GE(st.readahead_hits * 10, st.readahead_issued * 8);
  EXPECT_EQ(st.readahead_wasted, 0u);
}

TEST_F(ReadAheadTest, SeekCancelsTheStreakAndStopsPrefetching) {
  std::vector<std::uint8_t> out(kBlockSize);
  // Random-ish access pattern: never two consecutive offsets.
  const std::uint64_t order[] = {0, 30, 5, 44, 12, 60, 2, 25};
  for (std::uint64_t b : order) {
    ASSERT_TRUE(service_->Read(file_, b * kBlockSize, out).ok());
  }
  EXPECT_EQ(service_->stats().readahead_issued, 0u);
}

TEST_F(ReadAheadTest, UnreadPrefetchesCountAsWastedOnCrash) {
  std::vector<std::uint8_t> out(kBlockSize);
  // Two sequential reads arm the detector and trigger one prefetch.
  ASSERT_TRUE(service_->Read(file_, 0, out).ok());
  ASSERT_TRUE(service_->Read(file_, kBlockSize, out).ok());
  ASSERT_GT(service_->stats().readahead_issued, 0u);
  // Abandon the stream: the prefetched blocks die unread.
  service_->Crash();
  EXPECT_EQ(service_->stats().readahead_wasted,
            service_->stats().readahead_issued -
                service_->stats().readahead_hits);
  EXPECT_GT(service_->stats().readahead_wasted, 0u);
}

TEST_F(ReadAheadTest, PrefetchStaysWithinTheFile) {
  std::vector<std::uint8_t> out(kBlockSize);
  // Stream the tail of the file; prefetch must clamp at EOF.
  for (std::uint64_t b = kBlocks - 4; b < kBlocks; ++b) {
    ASSERT_TRUE(service_->Read(file_, b * kBlockSize, out).ok());
  }
  const auto& st = service_->stats();
  EXPECT_LE(st.readahead_issued, 4u);
  // Every byte still correct at the boundary.
  auto n = service_->Read(file_, (kBlocks - 1) * kBlockSize, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, kBlockSize);
}

}  // namespace
}  // namespace rhodos
