// Tests for the disk service (paper §4): allocation via bitmap + run array,
// get/put/flush with stable-storage modes, track readahead, metadata
// persistence and crash recovery.
#include <gtest/gtest.h>

#include <set>

#include "common/sim_clock.h"
#include "disk/disk_registry.h"
#include "disk/disk_server.h"
#include "sim/parallel.h"

namespace rhodos::disk {
namespace {

DiskServerConfig SmallConfig() {
  DiskServerConfig c;
  c.geometry.total_fragments = 1024;
  c.geometry.fragments_per_track = 16;
  c.cache_capacity_tracks = 8;
  return c;
}

class DiskServerTest : public ::testing::Test {
 protected:
  SimClock clock_;
  DiskServer server_{DiskId{0}, SmallConfig(), &clock_};
};

TEST_F(DiskServerTest, MetadataRegionIsReserved) {
  EXPECT_GT(server_.MetadataFragments(), 0u);
  EXPECT_EQ(server_.FreeFragmentCount(),
            1024 - server_.MetadataFragments());
  // Allocations never land inside it.
  auto frag = server_.AllocateFragments(4);
  ASSERT_TRUE(frag.ok());
  EXPECT_GE(*frag, server_.MetadataFragments());
  // And freeing it is refused.
  EXPECT_EQ(server_.FreeFragments(0, 1).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(DiskServerTest, AllocateFreeCycle) {
  auto a = server_.AllocateFragments(10);
  ASSERT_TRUE(a.ok());
  auto b = server_.AllocateFragments(10);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  ASSERT_TRUE(server_.FreeFragments(*a, 10).ok());
  ASSERT_TRUE(server_.FreeFragments(*b, 10).ok());
  EXPECT_EQ(server_.FreeFragmentCount(),
            1024 - server_.MetadataFragments());
}

TEST_F(DiskServerTest, AllocateBlocksGivesContiguousFragments) {
  auto frag = server_.AllocateBlocks(3);
  ASSERT_TRUE(frag.ok());
  // 3 blocks = 12 fragments, all now allocated.
  EXPECT_EQ(server_.AllocateSpecific(*frag, 12).code(),
            ErrorCode::kNoSpace);
}

TEST_F(DiskServerTest, AllocateSpecificClaimsExactRange) {
  const FragmentIndex base = server_.MetadataFragments() + 100;
  ASSERT_TRUE(server_.AllocateSpecific(base, 8).ok());
  EXPECT_EQ(server_.AllocateSpecific(base + 4, 2).code(),
            ErrorCode::kNoSpace);
  ASSERT_TRUE(server_.FreeFragments(base, 8).ok());
  ASSERT_TRUE(server_.AllocateSpecific(base + 4, 2).ok());
}

TEST_F(DiskServerTest, NoSpaceWhenNoContiguousRun) {
  // Fill the disk, then free every other fragment: plenty free, nothing
  // contiguous beyond 1.
  const std::uint64_t meta = server_.MetadataFragments();
  auto all = server_.AllocateFragments(
      static_cast<std::uint32_t>(1024 - meta));
  ASSERT_TRUE(all.ok());
  for (FragmentIndex f = meta; f < 1024; f += 2) {
    ASSERT_TRUE(server_.FreeFragments(f, 1).ok());
  }
  EXPECT_FALSE(server_.AllocateFragments(2).ok());
  ASSERT_TRUE(server_.AllocateFragments(1).ok());
}

TEST_F(DiskServerTest, PutGetRoundTrip) {
  auto frag = server_.AllocateBlocks(2);
  ASSERT_TRUE(frag.ok());
  std::vector<std::uint8_t> in(2 * kBlockSize, 0x3C);
  ASSERT_TRUE(server_.PutBlock(*frag, 8, in).ok());
  std::vector<std::uint8_t> out(2 * kBlockSize);
  ASSERT_TRUE(server_.GetBlock(*frag, 8, out).ok());
  EXPECT_EQ(out, in);
}

TEST_F(DiskServerTest, CacheServesRepeatReadsWithoutDisk) {
  auto frag = server_.AllocateBlocks(1);
  ASSERT_TRUE(frag.ok());
  std::vector<std::uint8_t> buf(kBlockSize, 1);
  ASSERT_TRUE(server_.PutBlock(*frag, 4, buf).ok());
  server_.ResetStats();
  ASSERT_TRUE(server_.GetBlock(*frag, 4, buf).ok());
  EXPECT_EQ(server_.main_stats().read_references, 0u);  // write-through cached
  EXPECT_GT(server_.cache_stats().hits, 0u);
}

TEST_F(DiskServerTest, TrackReadaheadFillsRestOfTrack) {
  // Write two blocks on the same track directly to the device, then read
  // just the first through the server: the second should be cache-resident.
  const FragmentIndex base = 64;  // track boundary (16/track)
  ASSERT_TRUE(server_.AllocateSpecific(base, 8).ok());
  std::vector<std::uint8_t> two(2 * kBlockSize, 0x77);
  ASSERT_TRUE(server_.main_device().WriteFragments(base, 8, two).ok());
  server_.ResetStats();

  std::vector<std::uint8_t> one(kBlockSize);
  ASSERT_TRUE(server_.GetBlock(base, 4, one).ok());
  EXPECT_EQ(server_.main_stats().read_references, 1u);
  // The neighbour block was swept in by the same head pass.
  ASSERT_TRUE(server_.GetBlock(base + 4, 4, one).ok());
  EXPECT_EQ(server_.main_stats().read_references, 1u);  // still one
}

TEST_F(DiskServerTest, StableOnlyWriteLeavesMainUntouched) {
  auto frag = server_.AllocateBlocks(1);
  ASSERT_TRUE(frag.ok());
  std::vector<std::uint8_t> zeros(kBlockSize, 0);
  ASSERT_TRUE(server_.PutBlock(*frag, 4, zeros).ok());
  std::vector<std::uint8_t> payload(kBlockSize, 0xEE);
  ASSERT_TRUE(server_.PutBlock(*frag, 4, payload,
                               StableMode::kStableOnly).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(server_.GetBlock(*frag, 4, out, ReadSource::kMain).ok());
  EXPECT_EQ(out, zeros);
  ASSERT_TRUE(server_.GetBlock(*frag, 4, out, ReadSource::kStable).ok());
  EXPECT_EQ(out, payload);
}

TEST_F(DiskServerTest, OriginalAndStableWritesBoth) {
  auto frag = server_.AllocateBlocks(1);
  ASSERT_TRUE(frag.ok());
  std::vector<std::uint8_t> payload(kBlockSize, 0xAF);
  ASSERT_TRUE(server_.PutBlock(*frag, 4, payload,
                               StableMode::kOriginalAndStable).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(server_.GetBlock(*frag, 4, out, ReadSource::kMain).ok());
  EXPECT_EQ(out, payload);
  ASSERT_TRUE(server_.GetBlock(*frag, 4, out, ReadSource::kStable).ok());
  EXPECT_EQ(out, payload);
}

// A fresh location has no old value to protect: the main copy and the
// mirror are two lanes of one section, so the caller pays the slower copy
// plus two lane dispatches, and each device still sees exactly one
// reference.
TEST_F(DiskServerTest, FreshWriteCostsTheSlowerCopyPlusTwoDispatches) {
  auto frag = server_.AllocateBlocks(1);
  ASSERT_TRUE(frag.ok());
  std::vector<std::uint8_t> payload(kBlockSize, 0x5A);
  const auto main_before = server_.main_stats();
  const auto mirror_before = server_.stable_stats();
  const std::uint64_t conflicts = sim::LaneConflicts();
  const SimTime t0 = clock_.Now();
  ASSERT_TRUE(server_.PutFreshBlock(*frag, 4, payload).ok());
  const SimTime elapsed = clock_.Now() - t0;
  const SimTime main_cost =
      server_.main_stats().time_charged - main_before.time_charged;
  const SimTime mirror_cost =
      server_.stable_stats().time_charged - mirror_before.time_charged;
  ASSERT_GT(main_cost, 0);
  ASSERT_GT(mirror_cost, 0);
  EXPECT_EQ(elapsed,
            std::max(main_cost, mirror_cost) + 2 * sim::kLaneDispatchCost);
  EXPECT_LT(elapsed, main_cost + mirror_cost);
  EXPECT_EQ(server_.main_stats().write_references,
            main_before.write_references + 1);
  EXPECT_EQ(server_.stable_stats().write_references,
            mirror_before.write_references + 1);
  EXPECT_EQ(sim::LaneConflicts(), conflicts);  // one device per lane

  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(server_.GetBlock(*frag, 4, out, ReadSource::kMain).ok());
  EXPECT_EQ(out, payload);
  ASSERT_TRUE(server_.GetBlock(*frag, 4, out, ReadSource::kStable).ok());
  EXPECT_EQ(out, payload);
}

// An in-place update keeps the careful write: main first, then the mirror,
// charged one after the other.
TEST_F(DiskServerTest, InPlaceOriginalAndStableChargesMainThenMirror) {
  auto frag = server_.AllocateBlocks(1);
  ASSERT_TRUE(frag.ok());
  std::vector<std::uint8_t> payload(kBlockSize, 0xA5);
  const SimTime main_before = server_.main_stats().time_charged;
  const SimTime mirror_before = server_.stable_stats().time_charged;
  const SimTime t0 = clock_.Now();
  ASSERT_TRUE(server_.PutBlock(*frag, 4, payload,
                               StableMode::kOriginalAndStable).ok());
  EXPECT_EQ(clock_.Now() - t0,
            (server_.main_stats().time_charged - main_before) +
                (server_.stable_stats().time_charged - mirror_before));
}

TEST_F(DiskServerTest, AsyncStableWriteIsDeferredAndDrainable) {
  auto frag = server_.AllocateBlocks(1);
  ASSERT_TRUE(frag.ok());
  std::vector<std::uint8_t> payload(kBlockSize, 0x11);
  ASSERT_TRUE(server_.PutBlock(*frag, 4, payload, StableMode::kStableOnly,
                               WriteSync::kAsynchronous).ok());
  EXPECT_EQ(server_.PendingStableWrites(), 1u);
  std::vector<std::uint8_t> out(kBlockSize, 0);
  ASSERT_TRUE(server_.GetBlock(*frag, 4, out, ReadSource::kStable).ok());
  EXPECT_NE(out, payload);  // not yet on stable storage
  ASSERT_TRUE(server_.DrainStableWrites().ok());
  ASSERT_TRUE(server_.GetBlock(*frag, 4, out, ReadSource::kStable).ok());
  EXPECT_EQ(out, payload);
}

// A metadata image supersedes any older one still queued for the mirror;
// other asynchronous stable writes keep their place in the queue.
TEST_F(DiskServerTest, NewerMetadataImageSupersedesTheQueuedOne) {
  auto data_frag = server_.AllocateBlocks(1);
  ASSERT_TRUE(data_frag.ok());
  const std::vector<std::uint8_t> payload(kBlockSize, 0x5E);
  ASSERT_TRUE(server_.PutBlock(*data_frag, 4, payload,
                               StableMode::kOriginalAndStable,
                               WriteSync::kAsynchronous).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server_.AllocateFragments(3).ok());
    ASSERT_TRUE(server_.PersistMetadata(WriteSync::kAsynchronous).ok());
    EXPECT_EQ(server_.PendingStableWrites(), 2u);
  }
  // A synchronous image reaches the mirror now: the queued one is stale.
  auto last = server_.AllocateFragments(5);
  ASSERT_TRUE(last.ok());
  ASSERT_TRUE(server_.PersistMetadata(WriteSync::kSynchronous).ok());
  EXPECT_EQ(server_.PendingStableWrites(), 1u);
  ASSERT_TRUE(server_.DrainStableWrites().ok());

  const auto n = static_cast<std::uint32_t>(server_.MetadataFragments());
  std::vector<std::uint8_t> main(n * kFragmentSize);
  std::vector<std::uint8_t> mirror(n * kFragmentSize);
  ASSERT_TRUE(server_.GetBlock(0, n, main).ok());
  ASSERT_TRUE(server_.GetBlock(0, n, mirror, ReadSource::kStable).ok());
  EXPECT_EQ(mirror, main);
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(
      server_.GetBlock(*data_frag, 4, out, ReadSource::kStable).ok());
  EXPECT_EQ(out, payload);
  // Recovery from the mirror alone knows the last allocation.
  const std::vector<std::uint8_t> garbage(kFragmentSize, 0xFF);
  server_.main_device().RawOverwrite(0, garbage);
  server_.Crash();
  ASSERT_TRUE(server_.Recover().ok());
  EXPECT_TRUE(server_.IsFragmentAllocated(*last + 4));
}

TEST_F(DiskServerTest, SyncStableWriteCostsMoreThanAsync) {
  auto frag = server_.AllocateBlocks(2);
  ASSERT_TRUE(frag.ok());
  std::vector<std::uint8_t> payload(kBlockSize, 0x22);
  const SimTime t0 = clock_.Now();
  ASSERT_TRUE(server_.PutBlock(*frag, 4, payload,
                               StableMode::kOriginalAndStable,
                               WriteSync::kSynchronous).ok());
  const SimTime sync_cost = clock_.Now() - t0;
  const SimTime t1 = clock_.Now();
  ASSERT_TRUE(server_.PutBlock(*frag + 4, 4, payload,
                               StableMode::kOriginalAndStable,
                               WriteSync::kAsynchronous).ok());
  const SimTime async_cost = clock_.Now() - t1;
  EXPECT_GT(sync_cost, async_cost);
}

TEST_F(DiskServerTest, CrashKeepsAPutOnThePlatter) {
  auto frag = server_.AllocateBlocks(1);
  ASSERT_TRUE(frag.ok());
  std::vector<std::uint8_t> durable(kBlockSize, 0xD0);
  ASSERT_TRUE(server_.PutBlock(*frag, 4, durable).ok());  // write-through
  ASSERT_TRUE(server_.PersistMetadata().ok());
  server_.Crash();
  ASSERT_TRUE(server_.Recover().ok());
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(server_.GetBlock(*frag, 4, out).ok());
  EXPECT_EQ(out, durable);
}

TEST_F(DiskServerTest, MetadataRecoveryRestoresAllocations) {
  auto a = server_.AllocateFragments(32);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(server_.PersistMetadata().ok());
  const std::uint64_t free_before = server_.FreeFragmentCount();
  server_.Crash();
  ASSERT_TRUE(server_.Recover().ok());
  EXPECT_EQ(server_.FreeFragmentCount(), free_before);
  // The recovered bitmap still refuses the allocated range.
  EXPECT_FALSE(server_.AllocateSpecific(*a, 32).ok());
}

TEST_F(DiskServerTest, MetadataRecoversFromStableWhenMainIsTorn) {
  auto a = server_.AllocateFragments(32);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(server_.PersistMetadata().ok());
  // Corrupt the main copy of the bitmap (simulates a torn metadata write).
  std::vector<std::uint8_t> garbage(kFragmentSize, 0xFF);
  server_.main_device().RawOverwrite(0, garbage);
  server_.Crash();
  ASSERT_TRUE(server_.Recover().ok());  // falls back to stable storage
  EXPECT_FALSE(server_.AllocateSpecific(*a, 32).ok());
}

TEST_F(DiskServerTest, LargestFreeRunTracksFragmentation) {
  const std::uint64_t before = server_.LargestFreeRun();
  auto mid = server_.AllocateFragments(4);
  ASSERT_TRUE(mid.ok());
  EXPECT_LE(server_.LargestFreeRun(), before);
}

// --- registry ---------------------------------------------------------------------

TEST(DiskRegistryTest, RoundRobinSpreadsAllocations) {
  SimClock clock;
  DiskRegistry registry;
  for (int i = 0; i < 4; ++i) registry.AddDisk(SmallConfig(), &clock);
  std::set<std::uint32_t> used;
  for (int i = 0; i < 4; ++i) {
    auto p = registry.Allocate(8);
    ASSERT_TRUE(p.ok());
    used.insert(p->disk.value);
  }
  EXPECT_EQ(used.size(), 4u);
}

TEST(DiskRegistryTest, AvoidanceGoesElsewhere) {
  SimClock clock;
  DiskRegistry registry;
  registry.AddDisk(SmallConfig(), &clock);
  registry.AddDisk(SmallConfig(), &clock);
  for (int i = 0; i < 6; ++i) {
    auto p = registry.AllocateAvoiding(4, DiskId{0});
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->disk.value, 1u);
  }
}

TEST(DiskRegistryTest, FallsBackWhenPreferredDiskFull) {
  SimClock clock;
  DiskRegistry registry;
  registry.AddDisk(SmallConfig(), &clock);
  registry.AddDisk(SmallConfig(), &clock);
  // The first allocation lands on disk 0 and moves the cursor to disk 1.
  auto first = registry.Allocate(8);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->disk.value, 0u);
  auto d1 = registry.Get(DiskId{1});
  const auto all = static_cast<std::uint32_t>((*d1)->FreeFragmentCount());
  ASSERT_TRUE((*d1)->AllocateFragments(all).ok());
  auto p = registry.Allocate(8);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->disk.value, 0u);
}

TEST(DiskRegistryTest, NoDisksIsAnError) {
  DiskRegistry registry;
  EXPECT_EQ(registry.Allocate(1).error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(registry.Get(DiskId{0}).error().code, ErrorCode::kNotFound);
}

}  // namespace
}  // namespace rhodos::disk
