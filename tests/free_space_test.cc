// Tests for the paper's 64x64 free-space run array (§4) and the track
// cache.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "disk/free_space_array.h"
#include "disk/track_cache.h"

namespace rhodos::disk {
namespace {

// --- FreeSpaceArray -----------------------------------------------------------

TEST(FreeSpaceArrayTest, RebuildIndexesBitmapRuns) {
  Bitmap bm(256);
  bm.AllocateRange(0, 10);   // leaves runs [10,256)
  bm.AllocateRange(20, 10);  // splits: [10,20) and [30,256)
  FreeSpaceArray fsa;
  fsa.RebuildFromBitmap(bm);
  EXPECT_EQ(fsa.IndexedRuns(), 2u);
  EXPECT_TRUE(fsa.MightSatisfy(10));
  EXPECT_TRUE(fsa.MightSatisfy(200));
}

TEST(FreeSpaceArrayTest, ExactFitPreferred) {
  Bitmap bm(256);
  bm.AllocateRange(0, 256);
  bm.FreeRange(0, 3);    // run of 3
  bm.FreeRange(10, 50);  // run of 50
  FreeSpaceArray fsa;
  fsa.RebuildFromBitmap(bm);
  // A request for 3 should take the exact-fit run, not carve the big one.
  auto hit = fsa.TakeRun(3, bm);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 0u);
}

TEST(FreeSpaceArrayTest, SplitsLongerRunAndRefilesRemainder) {
  Bitmap bm(256);
  bm.AllocateRange(0, 256);
  bm.FreeRange(100, 40);
  FreeSpaceArray fsa;
  fsa.RebuildFromBitmap(bm);
  auto hit = fsa.TakeRun(10, bm);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 100u);
  bm.AllocateRange(*hit, 10);
  // Remainder [110, 140) was re-filed and can be taken next.
  auto rest = fsa.TakeRun(30, bm);
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(*rest, 110u);
}

TEST(FreeSpaceArrayTest, StaleEntriesAreDiscarded) {
  Bitmap bm(128);
  FreeSpaceArray fsa;
  fsa.InsertRun(0, 16);
  bm.AllocateRange(0, 16);  // bitmap moved on; entry now stale
  EXPECT_EQ(fsa.TakeRun(16, bm), std::nullopt);
  EXPECT_GE(fsa.stats().stale_discards, 1u);
  EXPECT_GE(fsa.stats().array_misses, 1u);
}

TEST(FreeSpaceArrayTest, RunsLongerThan64LandInLastRow) {
  Bitmap bm(1024);
  FreeSpaceArray fsa;
  fsa.RebuildFromBitmap(bm);  // one run of 1024
  EXPECT_TRUE(fsa.MightSatisfy(64));
  auto hit = fsa.TakeRun(500, bm);
  ASSERT_TRUE(hit.has_value());
}

TEST(FreeSpaceArrayTest, RowsAreBoundedAt64Entries) {
  Bitmap bm(4096);
  // Create 200 isolated single-fragment holes.
  bm.AllocateRange(0, 4096);
  for (int i = 0; i < 200; ++i) bm.FreeRange(i * 2, 1);
  FreeSpaceArray fsa;
  fsa.RebuildFromBitmap(bm);
  // Row 0 holds at most 64 references; the rest stay only in the bitmap.
  EXPECT_LE(fsa.IndexedRuns(), kFreeSpaceCols);
}

TEST(FreeSpaceArrayTest, MightSatisfyFalseWhenDry) {
  FreeSpaceArray fsa;
  EXPECT_FALSE(fsa.MightSatisfy(1));
  EXPECT_FALSE(fsa.MightSatisfy(0));
}

// --- TrackCache -----------------------------------------------------------------

TEST(TrackCacheTest, MissThenHit) {
  TrackCache cache(16, 4);
  std::vector<std::uint8_t> data(kFragmentSize * 2, 0x42);
  std::vector<std::uint8_t> out(kFragmentSize * 2);
  EXPECT_FALSE(cache.Lookup(0, 2, out));
  cache.Install(0, 2, data);
  ASSERT_TRUE(cache.Lookup(0, 2, out));
  EXPECT_EQ(out, data);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(TrackCacheTest, PartialResidencyIsAMiss) {
  TrackCache cache(16, 4);
  std::vector<std::uint8_t> one(kFragmentSize, 1);
  cache.Install(0, 1, one);
  std::vector<std::uint8_t> out(kFragmentSize * 2);
  EXPECT_FALSE(cache.Lookup(0, 2, out));  // fragment 1 absent
}

TEST(TrackCacheTest, LruEvictsWholeTracks) {
  TrackCache cache(4, 2);  // 4 fragments per track, 2 tracks capacity
  std::vector<std::uint8_t> data(kFragmentSize, 7);
  cache.Install(0, 1, data);   // track 0
  cache.Install(4, 1, data);   // track 1
  cache.Install(8, 1, data);   // track 2 -> evicts track 0 (LRU)
  EXPECT_FALSE(cache.Contains(0));
  EXPECT_TRUE(cache.Contains(4));
  EXPECT_TRUE(cache.Contains(8));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(TrackCacheTest, TouchRefreshesLru) {
  TrackCache cache(4, 2);
  std::vector<std::uint8_t> data(kFragmentSize, 7);
  std::vector<std::uint8_t> out(kFragmentSize);
  cache.Install(0, 1, data);  // track 0
  cache.Install(4, 1, data);  // track 1
  ASSERT_TRUE(cache.Lookup(0, 1, out));  // touch track 0
  cache.Install(8, 1, data);  // evicts track 1, not 0
  EXPECT_TRUE(cache.Contains(0));
  EXPECT_FALSE(cache.Contains(4));
}

TEST(TrackCacheTest, DisabledCacheNeverHits) {
  TrackCache cache(16, 0);
  EXPECT_FALSE(cache.enabled());
  std::vector<std::uint8_t> data(kFragmentSize, 1);
  std::vector<std::uint8_t> out(kFragmentSize);
  cache.Install(0, 1, data);
  EXPECT_FALSE(cache.Lookup(0, 1, out));
}

TEST(TrackCacheTest, InvalidateAllModelsCrash) {
  TrackCache cache(8, 4);
  std::vector<std::uint8_t> data(kFragmentSize, 1);
  cache.Install(0, 1, data);
  cache.InvalidateAll();
  EXPECT_FALSE(cache.Contains(0));
}

}  // namespace
}  // namespace rhodos::disk
