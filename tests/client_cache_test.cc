// Coherent write-behind client caching (paper §2.2, §5): the file agent's
// per-file dirty-block index, batched PwriteVec flushes, background
// write-behind, the close that rides its file's batch, version-token cache
// coherence across machines, and the generation-validated name cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/facility.h"
#include "file/fsck.h"

namespace rhodos::agent {
namespace {

using core::DistributedFileFacility;
using core::FacilityConfig;
using core::Machine;

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 13);
  }
  return v;
}

// Background write-behind off unless a test turns it on, so each test
// controls exactly when flushes happen.
FacilityConfig CacheFacility(std::size_t cache_blocks = 128,
                             std::size_t threshold = 0, SimTime age_ns = 0) {
  FacilityConfig c;
  c.geometry.total_fragments = 16 * 1024;
  c.geometry.fragments_per_track = 32;
  c.agent.delayed_write = true;
  c.agent.cache_blocks = cache_blocks;
  c.agent.writeback_threshold = threshold;
  c.agent.writeback_age_ns = age_ns;
  return c;
}

std::uint64_t BusCalls(DistributedFileFacility& f) {
  return f.bus().stats().calls;
}

TEST(ClientCacheTest, FlushPushes64DirtyBlocksInOneExchange) {
  DistributedFileFacility f(CacheFacility());
  Machine& m = f.AddMachine();
  auto od = *m.file_agent->Create(naming::ByName("big"),
                                  file::ServiceType::kBasic);
  const auto block = Pattern(kBlockSize, 7);
  for (std::uint64_t b = 0; b < 64; ++b) {
    ASSERT_TRUE(m.file_agent->Pwrite(od, b * kBlockSize, block).ok());
  }
  ASSERT_EQ(m.file_agent->DirtyBlocks(), 64u);

  const std::uint64_t calls_before = BusCalls(f);
  ASSERT_TRUE(m.file_agent->Flush(od).ok());
  EXPECT_EQ(BusCalls(f) - calls_before, 1u)
      << "64 dirty blocks must travel in one PwriteVec exchange";
  EXPECT_EQ(m.file_agent->stats().writeback_batches, 1u);
  EXPECT_EQ(m.file_agent->stats().writeback_runs, 1u)
      << "64 adjacent full blocks coalesce into a single run";
  EXPECT_EQ(m.file_agent->DirtyBlocks(), 0u);
  ASSERT_TRUE(m.file_agent->Close(od).ok());

  // The data actually reached the server: a second machine reads it back.
  Machine& other = f.AddMachine();
  auto od2 = other.file_agent->Open(naming::ByName("big"));
  ASSERT_TRUE(od2.ok());
  std::vector<std::uint8_t> out(kBlockSize);
  for (std::uint64_t b = 0; b < 64; ++b) {
    ASSERT_TRUE(other.file_agent->Pread(*od2, b * kBlockSize, out).ok());
    ASSERT_EQ(out, block) << "block " << b;
  }
}

TEST(ClientCacheTest, GapsBetweenDirtyBlocksSplitTheRuns) {
  DistributedFileFacility f(CacheFacility());
  Machine& m = f.AddMachine();
  auto od = *m.file_agent->Create(naming::ByName("holes"),
                                  file::ServiceType::kBasic);
  const auto block = Pattern(kBlockSize, 3);
  // Dirty blocks {0}, {2}, {5,6,7}: three coalesced runs, one exchange.
  ASSERT_TRUE(m.file_agent->Pwrite(od, 0, block).ok());
  ASSERT_TRUE(m.file_agent->Pwrite(od, 2 * kBlockSize, block).ok());
  for (std::uint64_t b = 5; b <= 7; ++b) {
    ASSERT_TRUE(m.file_agent->Pwrite(od, b * kBlockSize, block).ok());
  }
  const std::uint64_t calls_before = BusCalls(f);
  ASSERT_TRUE(m.file_agent->Flush(od).ok());
  EXPECT_EQ(BusCalls(f) - calls_before, 1u);
  EXPECT_EQ(m.file_agent->stats().writeback_batches, 1u);
  EXPECT_EQ(m.file_agent->stats().writeback_runs, 3u);
  ASSERT_TRUE(m.file_agent->Close(od).ok());
}

TEST(ClientCacheTest, FlushIsPerFileAndLeavesOtherFilesDirty) {
  DistributedFileFacility f(CacheFacility());
  Machine& m = f.AddMachine();
  auto od1 = *m.file_agent->Create(naming::ByName("one"),
                                   file::ServiceType::kBasic);
  auto od2 = *m.file_agent->Create(naming::ByName("two"),
                                   file::ServiceType::kBasic);
  const auto block = Pattern(kBlockSize, 5);
  for (std::uint64_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(m.file_agent->Pwrite(od1, b * kBlockSize, block).ok());
    ASSERT_TRUE(m.file_agent->Pwrite(od2, b * kBlockSize, block).ok());
  }
  const FileId f1 = *m.file_agent->FileOf(od1);
  const FileId f2 = *m.file_agent->FileOf(od2);
  ASSERT_EQ(m.file_agent->DirtyBlocks(), 8u);

  const std::uint64_t calls_before = BusCalls(f);
  ASSERT_TRUE(m.file_agent->Flush(od1).ok());
  EXPECT_EQ(BusCalls(f) - calls_before, 1u);
  EXPECT_EQ(m.file_agent->DirtyBlocks(f1), 0u);
  EXPECT_EQ(m.file_agent->DirtyBlocks(f2), 4u)
      << "flushing one descriptor must not touch the other file's blocks";
  ASSERT_TRUE(m.file_agent->FlushAll().ok());
  EXPECT_EQ(m.file_agent->DirtyBlocks(), 0u);
}

TEST(ClientCacheTest, DirtyCountAgreesWithPerFileIndex) {
  DistributedFileFacility f(CacheFacility(/*cache_blocks=*/16));
  Machine& m = f.AddMachine();
  auto od1 = *m.file_agent->Create(naming::ByName("scan-a"),
                                   file::ServiceType::kBasic);
  auto od2 = *m.file_agent->Create(naming::ByName("scan-b"),
                                   file::ServiceType::kBasic);
  const FileId f1 = *m.file_agent->FileOf(od1);
  const FileId f2 = *m.file_agent->FileOf(od2);

  // The running count the write-behind trigger reads must equal what the
  // cache's per-file index holds dirty.
  auto check = [&](const char* where) {
    EXPECT_EQ(m.file_agent->DirtyBlocks(),
              m.file_agent->DirtyBlocks(f1) + m.file_agent->DirtyBlocks(f2))
        << where;
  };

  check("empty");
  // Full blocks, a partial tail, and an overwrite of an already-dirty block.
  const auto block = Pattern(kBlockSize, 9);
  for (std::uint64_t b = 0; b < 6; ++b) {
    ASSERT_TRUE(m.file_agent->Pwrite(od1, b * kBlockSize, block).ok());
  }
  ASSERT_TRUE(m.file_agent->Pwrite(od1, 6 * kBlockSize, Pattern(100)).ok());
  ASSERT_TRUE(m.file_agent->Pwrite(od1, 0, Pattern(kBlockSize, 11)).ok());
  ASSERT_TRUE(m.file_agent->Pwrite(od2, 0, Pattern(300)).ok());
  check("after writes");

  ASSERT_TRUE(m.file_agent->Flush(od1).ok());
  check("after per-file flush");

  // Eviction pressure cycles blocks through the small cache.
  for (std::uint64_t b = 0; b < 24; ++b) {
    ASSERT_TRUE(m.file_agent->Pwrite(od2, b * kBlockSize, block).ok());
  }
  check("under eviction pressure");

  ASSERT_TRUE(m.file_agent->Close(od1).ok());
  ASSERT_TRUE(m.file_agent->Close(od2).ok());
  check("after close");

  m.file_agent->Crash();
  check("after crash");
  EXPECT_EQ(m.file_agent->DirtyBlocks(), 0u);
}

TEST(ClientCacheTest, ThresholdTriggersBackgroundWriteback) {
  DistributedFileFacility f(
      CacheFacility(/*cache_blocks=*/128, /*threshold=*/4));
  Machine& m = f.AddMachine();
  auto od = *m.file_agent->Create(naming::ByName("thresh"),
                                  file::ServiceType::kBasic);
  const auto block = Pattern(kBlockSize, 2);
  for (std::uint64_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(m.file_agent->Pwrite(od, b * kBlockSize, block).ok());
  }
  // The trigger is checked at the top of the next data operation.
  EXPECT_EQ(m.file_agent->stats().writeback_batches, 0u);
  ASSERT_TRUE(m.file_agent->Pwrite(od, 4 * kBlockSize, block).ok());
  EXPECT_EQ(m.file_agent->stats().writeback_batches, 1u);
  EXPECT_EQ(m.file_agent->DirtyBlocks(), 1u)
      << "only the write that followed the flush should still be dirty";
  ASSERT_TRUE(m.file_agent->Close(od).ok());
}

TEST(ClientCacheTest, AgeTriggersBackgroundWriteback) {
  DistributedFileFacility f(CacheFacility(/*cache_blocks=*/128,
                                          /*threshold=*/0,
                                          /*age_ns=*/50 * kSimMillisecond));
  Machine& m = f.AddMachine();
  auto od = *m.file_agent->Create(naming::ByName("aged"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(m.file_agent->Pwrite(od, 0, Pattern(kBlockSize, 4)).ok());
  ASSERT_EQ(m.file_agent->DirtyBlocks(), 1u);

  // Young dirty data survives the next operation untouched...
  std::vector<std::uint8_t> out(16);
  ASSERT_TRUE(m.file_agent->Pread(od, 0, out).ok());
  EXPECT_EQ(m.file_agent->stats().writeback_batches, 0u);

  // ...but once it is older than the age bound, the next operation
  // flushes it in the background.
  f.clock().Advance(60 * kSimMillisecond);
  ASSERT_TRUE(m.file_agent->Pread(od, 0, out).ok());
  EXPECT_EQ(m.file_agent->stats().writeback_batches, 1u);
  EXPECT_EQ(m.file_agent->DirtyBlocks(), 0u);
  ASSERT_TRUE(m.file_agent->Close(od).ok());
}

TEST(ClientCacheTest, EvictionPressureFlushesTheWholeCacheInOneBatch) {
  DistributedFileFacility f(CacheFacility(/*cache_blocks=*/8));
  Machine& m = f.AddMachine();
  auto od = *m.file_agent->Create(naming::ByName("pressure"),
                                  file::ServiceType::kBasic);
  const auto block = Pattern(kBlockSize, 6);
  // Nine dirty blocks against an 8-block cache: the ninth insert finds no
  // clean victim and flushes the entire dirty set in ONE exchange.
  for (std::uint64_t b = 0; b < 9; ++b) {
    ASSERT_TRUE(m.file_agent->Pwrite(od, b * kBlockSize, block).ok());
  }
  EXPECT_EQ(m.file_agent->stats().writeback_batches, 1u);
  EXPECT_EQ(m.file_agent->stats().writebacks, 8u);

  ASSERT_TRUE(m.file_agent->Close(od).ok());
  m.file_agent->Crash();  // drop the cache so the read-back is from the server
  auto od2 = m.file_agent->Open(naming::ByName("pressure"));
  ASSERT_TRUE(od2.ok());
  std::vector<std::uint8_t> out(kBlockSize);
  for (std::uint64_t b = 0; b < 9; ++b) {
    ASSERT_TRUE(m.file_agent->Pread(*od2, b * kBlockSize, out).ok());
    ASSERT_EQ(out, block) << "block " << b;
  }
}

TEST(ClientCacheTest, WarmReopenUnderCallbackCostsZeroExchanges) {
  DistributedFileFacility f(CacheFacility());
  Machine& m = f.AddMachine();
  auto od = *m.file_agent->Create(naming::ByName("warm"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(m.file_agent->Write(od, Pattern(100)).ok());
  ASSERT_TRUE(m.file_agent->Close(od).ok());

  const std::uint64_t resolutions_before = f.naming().stats().resolutions;
  const std::uint64_t calls_before = BusCalls(f);
  auto warm = m.file_agent->Open(naming::ByName("warm"));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(BusCalls(f) - calls_before, 0u)
      << "unbroken callback from the create still covers the file: the "
         "open is satisfied entirely from the agent's cached attributes";
  EXPECT_EQ(f.naming().stats().resolutions, resolutions_before)
      << "the binding comes from the agent's name cache";
  EXPECT_EQ(m.file_agent->stats().name_cache_hits, 1u);
  auto attrs = m.file_agent->GetAttribute(*warm);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->size, 100u);
  ASSERT_TRUE(m.file_agent->Close(*warm).ok());
}

TEST(ClientCacheTest, NameCacheInvalidatedByNamingGeneration) {
  DistributedFileFacility f(CacheFacility());
  Machine& a = f.AddMachine();
  Machine& b = f.AddMachine();
  auto od = *a.file_agent->Create(naming::ByName("gen"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(a.file_agent->Close(od).ok());
  ASSERT_TRUE(a.file_agent->Close(*a.file_agent->Open(naming::ByName("gen")))
                  .ok());
  EXPECT_EQ(a.file_agent->stats().name_cache_hits, 1u);

  // Any registry mutation moves the generation; machine A's cached
  // bindings are all revalidated through the naming service.
  auto other = *b.file_agent->Create(naming::ByName("other"),
                                     file::ServiceType::kBasic);
  ASSERT_TRUE(b.file_agent->Close(other).ok());

  const std::uint64_t resolutions_before = f.naming().stats().resolutions;
  auto re = a.file_agent->Open(naming::ByName("gen"));
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(a.file_agent->stats().name_cache_hits, 1u)
      << "stale generation must not serve from the name cache";
  EXPECT_EQ(f.naming().stats().resolutions, resolutions_before + 1);
  ASSERT_TRUE(a.file_agent->Close(*re).ok());
}

TEST(ClientCacheTest, DeleteAndRecreateNeverServesTheOldBinding) {
  DistributedFileFacility f(CacheFacility());
  Machine& a = f.AddMachine();
  Machine& b = f.AddMachine();
  auto od = *a.file_agent->Create(naming::ByName("swap"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(a.file_agent->Write(od, Pattern(64, 1)).ok());
  ASSERT_TRUE(a.file_agent->Close(od).ok());
  // Warm A's name cache and block cache with the original file.
  {
    auto h = a.file_agent->Open(naming::ByName("swap"));
    ASSERT_TRUE(h.ok());
    std::vector<std::uint8_t> warm(64);
    ASSERT_TRUE(a.file_agent->Pread(*h, 0, warm).ok());
    ASSERT_TRUE(a.file_agent->Close(*h).ok());
  }

  // Machine B deletes the file and recreates the name over a NEW file.
  ASSERT_TRUE(b.file_agent->Delete(naming::ByName("swap")).ok());
  auto fresh = *b.file_agent->Create(naming::ByName("swap"),
                                     file::ServiceType::kBasic);
  ASSERT_TRUE(b.file_agent->Write(fresh, Pattern(64, 2)).ok());
  ASSERT_TRUE(b.file_agent->Close(fresh).ok());

  // Machine A's cached binding is generation-stale, so the re-open
  // resolves fresh. The service may even reuse the freed FileId slot —
  // the version token (which keeps counting across delete/recreate) is
  // what guarantees A's stale cached blocks cannot serve.
  auto re = a.file_agent->Open(naming::ByName("swap"));
  ASSERT_TRUE(re.ok());
  std::vector<std::uint8_t> out(64);
  ASSERT_TRUE(a.file_agent->Pread(*re, 0, out).ok());
  EXPECT_EQ(out, Pattern(64, 2));
  ASSERT_TRUE(a.file_agent->Close(*re).ok());
  EXPECT_EQ(a.file_agent->stats().naming_unregister_failures, 0u);
  EXPECT_EQ(b.file_agent->stats().naming_unregister_failures, 0u);
}

// Regression: before version tokens, machine B kept serving its cached
// image of a block after machine A had flushed new bytes over it — the
// re-open validated nothing, so B read stale data forever.
TEST(ClientCacheTest, ReopenInvalidatesStaleBlocksViaVersionToken) {
  DistributedFileFacility f(CacheFacility());
  Machine& a = f.AddMachine();
  Machine& b = f.AddMachine();
  const auto v1 = Pattern(kBlockSize, 21);
  const auto v2 = Pattern(kBlockSize, 42);

  auto wr = *a.file_agent->Create(naming::ByName("shared"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(a.file_agent->Pwrite(wr, 0, v1).ok());
  ASSERT_TRUE(a.file_agent->Close(wr).ok());  // close flushes

  // B reads and caches the first version.
  auto rd = *b.file_agent->Open(naming::ByName("shared"));
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(b.file_agent->Pread(rd, 0, out).ok());
  ASSERT_EQ(out, v1);

  // A overwrites and flushes. Under callbacks the coherence is stronger
  // than the original validate-on-open: the flush breaks B's promise
  // before A's reply, so even B's OPEN descriptor stops serving the stale
  // image — the next read revalidates and descends for the new bytes.
  auto wr2 = *a.file_agent->Open(naming::ByName("shared"));
  ASSERT_TRUE(a.file_agent->Pwrite(wr2, 0, v2).ok());
  ASSERT_TRUE(a.file_agent->Close(wr2).ok());
  EXPECT_GE(b.file_agent->stats().callback_breaks, 1u);
  ASSERT_TRUE(b.file_agent->Pread(rd, 0, out).ok());
  EXPECT_EQ(out, v2) << "break-before-reply invalidates mid-session too";
  EXPECT_GE(b.file_agent->stats().stale_invalidations, 1u);
  ASSERT_TRUE(b.file_agent->Close(rd).ok());

  // A re-open after the break also sees the new bytes, of course.
  auto rd2 = *b.file_agent->Open(naming::ByName("shared"));
  ASSERT_TRUE(b.file_agent->Pread(rd2, 0, out).ok());
  EXPECT_EQ(out, v2) << "stale cached block served after re-open";
  ASSERT_TRUE(b.file_agent->Close(rd2).ok());
}

// Agent crash with unflushed delayed writes while the service is
// unreachable: the flush fails cleanly, the crash loses only the dirty
// client state, and the server-side image stays consistent (fsck clean,
// pre-crash content intact, unflushed bytes absent).
TEST(ClientCacheTest, AgentCrashMidWritebackLeavesServerConsistent) {
  FacilityConfig cfg = CacheFacility();
  cfg.agent.rpc.max_attempts = 2;  // fail fast while the service is down
  DistributedFileFacility f(cfg);
  Machine& m = f.AddMachine();
  const auto before = Pattern(kBlockSize, 50);

  auto od = *m.file_agent->Create(naming::ByName("durable"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(m.file_agent->Pwrite(od, 0, before).ok());
  ASSERT_TRUE(m.file_agent->Pwrite(od, kBlockSize, before).ok());
  ASSERT_TRUE(m.file_agent->Flush(od).ok());
  const FileId id = *m.file_agent->FileOf(od);

  // New dirty bytes that will never reach the server.
  ASSERT_TRUE(m.file_agent->Pwrite(od, 0, Pattern(kBlockSize, 51)).ok());
  f.bus().SetServiceDown(core::kFileServiceAddress);
  EXPECT_FALSE(m.file_agent->Flush(od).ok());
  EXPECT_EQ(m.file_agent->DirtyBlocks(), 1u)
      << "a failed flush keeps the data dirty for a later retry";
  m.file_agent->Crash();
  f.bus().SetServiceUp(core::kFileServiceAddress);

  // The service's on-disk structures survived the client's disappearance.
  const FileId ids[] = {id};
  const auto report = file::AuditFiles(f.files(), ids);
  EXPECT_TRUE(report.clean());

  // Pre-crash flushed content is intact; the unflushed overwrite is absent.
  auto re = m.file_agent->Open(naming::ByName("durable"));
  ASSERT_TRUE(re.ok());
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(m.file_agent->Pread(*re, 0, out).ok());
  EXPECT_EQ(out, before);
  ASSERT_TRUE(m.file_agent->Pread(*re, kBlockSize, out).ok());
  EXPECT_EQ(out, before);
  ASSERT_TRUE(m.file_agent->Close(*re).ok());
}

// --- cold reads fetch each missing run in one exchange ------------------------

// Writes `blocks` blocks of distinct bytes (plus `tail` bytes) through one
// machine and closes, so every byte is on the server and no other agent
// caches the file.
std::vector<std::uint8_t> WriteShared(Machine& m, const char* name,
                                      std::uint64_t blocks,
                                      std::uint64_t tail = 0) {
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const auto block = Pattern(kBlockSize, static_cast<std::uint8_t>(b + 1));
    bytes.insert(bytes.end(), block.begin(), block.end());
  }
  const auto rest = Pattern(tail, 99);
  bytes.insert(bytes.end(), rest.begin(), rest.end());
  auto od = *m.file_agent->Create(naming::ByName(name),
                                  file::ServiceType::kBasic);
  EXPECT_TRUE(m.file_agent->Pwrite(od, 0, bytes).ok());
  EXPECT_TRUE(m.file_agent->Close(od).ok());
  return bytes;
}

std::vector<std::uint8_t> Slice(const std::vector<std::uint8_t>& v,
                                std::uint64_t offset, std::uint64_t n) {
  return {v.begin() + static_cast<std::ptrdiff_t>(offset),
          v.begin() + static_cast<std::ptrdiff_t>(offset + n)};
}

TEST(ClientCacheTest, ColdFourBlockPreadIsOneExchange) {
  DistributedFileFacility f(CacheFacility());
  const auto bytes = WriteShared(f.AddMachine(), "run", 4);
  Machine& r = f.AddMachine();
  auto od = *r.file_agent->Open(naming::ByName("run"));

  std::vector<std::uint8_t> out(4 * kBlockSize);
  const std::uint64_t calls_before = BusCalls(f);
  ASSERT_EQ(*r.file_agent->Pread(od, 0, out), out.size());
  EXPECT_EQ(BusCalls(f) - calls_before, 1u)
      << "four missing blocks form one run and travel in one exchange";
  EXPECT_EQ(out, bytes);
  EXPECT_EQ(r.file_agent->stats().cache_misses, 4u)
      << "misses count blocks, not exchanges";

  // Every block of the run was cached: a misaligned re-read is local.
  std::vector<std::uint8_t> mid(2 * kBlockSize);
  const std::uint64_t calls_warm = BusCalls(f);
  ASSERT_EQ(*r.file_agent->Pread(od, kBlockSize + 100, mid), mid.size());
  EXPECT_EQ(BusCalls(f), calls_warm);
  EXPECT_EQ(mid, Slice(bytes, kBlockSize + 100, mid.size()));
  ASSERT_TRUE(r.file_agent->Close(od).ok());
}

TEST(ClientCacheTest, CachedMiddleBlockSplitsTheRunInTwo) {
  DistributedFileFacility f(CacheFacility());
  const auto bytes = WriteShared(f.AddMachine(), "split", 4);
  Machine& r = f.AddMachine();
  auto od = *r.file_agent->Open(naming::ByName("split"));
  std::vector<std::uint8_t> one(kBlockSize);
  ASSERT_TRUE(r.file_agent->Pread(od, kBlockSize, one).ok());
  ASSERT_EQ(one, Slice(bytes, kBlockSize, kBlockSize));

  // Block 1 is cached: block 0 is a run of one, blocks 2-3 a run of two.
  std::vector<std::uint8_t> out(4 * kBlockSize);
  const std::uint64_t calls_before = BusCalls(f);
  ASSERT_EQ(*r.file_agent->Pread(od, 0, out), out.size());
  EXPECT_EQ(BusCalls(f) - calls_before, 2u);
  EXPECT_EQ(out, bytes);
  EXPECT_EQ(r.file_agent->stats().cache_hits, 1u);
  EXPECT_EQ(r.file_agent->stats().cache_misses, 4u);
  ASSERT_TRUE(r.file_agent->Close(od).ok());
}

TEST(ClientCacheTest, RunPastEofReturnsTheShortCountAndCachesTheTail) {
  DistributedFileFacility f(CacheFacility());
  const auto bytes = WriteShared(f.AddMachine(), "tail", 2, 100);
  Machine& r = f.AddMachine();
  auto od = *r.file_agent->Open(naming::ByName("tail"));

  std::vector<std::uint8_t> out(4 * kBlockSize, 0xEE);
  const std::uint64_t calls_before = BusCalls(f);
  ASSERT_EQ(*r.file_agent->Pread(od, 0, out), bytes.size());
  EXPECT_EQ(BusCalls(f) - calls_before, 1u);
  EXPECT_EQ(Slice(out, 0, bytes.size()), bytes);

  // The tail block is cached with exactly its 100 valid bytes: reading
  // them is local, and the read still ends at EOF.
  std::vector<std::uint8_t> tail(kBlockSize);
  const std::uint64_t calls_warm = BusCalls(f);
  ASSERT_EQ(*r.file_agent->Pread(od, 2 * kBlockSize, tail), 100u);
  EXPECT_EQ(BusCalls(f), calls_warm);
  EXPECT_EQ(Slice(tail, 0, 100), Slice(bytes, 2 * kBlockSize, 100));
  ASSERT_TRUE(r.file_agent->Close(od).ok());

  // The server's EOF can also fall inside a run the agent asked for in
  // full: the file shrinks under an open descriptor whose size is stale.
  Machine& s = f.AddMachine();
  auto sd = *s.file_agent->Open(naming::ByName("tail"));
  const FileId id = *s.file_agent->FileOf(sd);
  ASSERT_TRUE(f.files().Resize(id, kBlockSize + 10).ok());
  std::vector<std::uint8_t> shrunk(2 * kBlockSize + 100);
  ASSERT_EQ(*s.file_agent->Pread(sd, 0, shrunk), kBlockSize + 10);
  EXPECT_EQ(Slice(shrunk, 0, kBlockSize + 10), Slice(bytes, 0, kBlockSize + 10));
  std::vector<std::uint8_t> last(10);
  const std::uint64_t calls_cached = BusCalls(f);
  ASSERT_EQ(*s.file_agent->Pread(sd, kBlockSize, last), 10u);
  EXPECT_EQ(BusCalls(f), calls_cached) << "the 10-byte tail was cached";
  EXPECT_EQ(last, Slice(bytes, kBlockSize, 10));
  ASSERT_TRUE(s.file_agent->Close(sd).ok());
}

TEST(ClientCacheTest, UncachedAgentStillReadsRunsCorrectly) {
  DistributedFileFacility f(CacheFacility(/*cache_blocks=*/0));
  const auto bytes = WriteShared(f.AddMachine(), "nocache", 4, 300);
  Machine& r = f.AddMachine();
  auto od = *r.file_agent->Open(naming::ByName("nocache"));
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<std::uint8_t> out(3 * kBlockSize);
    const std::uint64_t calls_before = BusCalls(f);
    ASSERT_EQ(*r.file_agent->Pread(od, 100, out), out.size());
    EXPECT_EQ(BusCalls(f) - calls_before, 1u) << "pass " << pass;
    EXPECT_EQ(out, Slice(bytes, 100, out.size())) << "pass " << pass;
  }
  std::vector<std::uint8_t> past(2 * kBlockSize);
  ASSERT_EQ(*r.file_agent->Pread(od, 3 * kBlockSize, past),
            kBlockSize + 300);
  EXPECT_EQ(Slice(past, 0, kBlockSize + 300),
            Slice(bytes, 3 * kBlockSize, kBlockSize + 300));
  ASSERT_TRUE(r.file_agent->Close(od).ok());
}

TEST(ClientCacheTest, DirtyBlockInsideARunIsServedLocallyAndNeverOverwritten) {
  DistributedFileFacility f(CacheFacility());
  auto bytes = WriteShared(f.AddMachine(), "dirty", 4);
  Machine& r = f.AddMachine();
  auto od = *r.file_agent->Open(naming::ByName("dirty"));
  const auto mine = Pattern(kBlockSize, 77);
  ASSERT_TRUE(r.file_agent->Pwrite(od, 2 * kBlockSize, mine).ok());
  ASSERT_EQ(r.file_agent->DirtyBlocks(), 1u);
  std::copy(mine.begin(), mine.end(),
            bytes.begin() + static_cast<std::ptrdiff_t>(2 * kBlockSize));

  // Blocks 0-1 and 3 are fetched as two runs around the dirty block 2.
  std::vector<std::uint8_t> out(4 * kBlockSize);
  const std::uint64_t calls_before = BusCalls(f);
  ASSERT_EQ(*r.file_agent->Pread(od, 0, out), out.size());
  EXPECT_EQ(BusCalls(f) - calls_before, 2u);
  EXPECT_EQ(out, bytes) << "the dirty block serves the agent's own bytes";
  EXPECT_EQ(r.file_agent->DirtyBlocks(), 1u);

  ASSERT_TRUE(r.file_agent->Close(od).ok());  // close flushes
  Machine& other = f.AddMachine();
  auto od2 = *other.file_agent->Open(naming::ByName("dirty"));
  ASSERT_EQ(*other.file_agent->Pread(od2, 0, out), out.size());
  EXPECT_EQ(out, bytes) << "the flushed block is the written one";
  ASSERT_TRUE(other.file_agent->Close(od2).ok());
}

// --- a close rides its file's write-back batch ---------------------------------

// Reads `n` bytes of `name` at offset 0 through a fresh machine, whose
// agent caches nothing.
std::vector<std::uint8_t> ColdRead(DistributedFileFacility& f,
                                   const char* name, std::uint64_t n) {
  Machine& reader = f.AddMachine();
  auto od = reader.file_agent->Open(naming::ByName(name));
  EXPECT_TRUE(od.ok());
  std::vector<std::uint8_t> out(n);
  EXPECT_EQ(*reader.file_agent->Pread(*od, 0, out), n);
  EXPECT_TRUE(reader.file_agent->Close(*od).ok());
  return out;
}

// Opens `name` through the server: the agent first forgets the callback
// promise that would make the open (and so its close) agent-local.
ObjectDescriptor OpenAtServer(Machine& m, const char* name) {
  m.file_agent->Crash();
  const std::uint64_t fast = m.file_agent->stats().callback_fast_opens;
  auto od = m.file_agent->Open(naming::ByName(name));
  EXPECT_TRUE(od.ok());
  EXPECT_EQ(m.file_agent->stats().callback_fast_opens, fast);
  return *od;
}

TEST(ClientCacheTest, CloseCostsOneExchangeOrNone) {
  DistributedFileFacility f(CacheFacility());
  Machine& m = f.AddMachine();
  const auto data = Pattern(kBlockSize, 3);
  auto close_calls = [&](ObjectDescriptor od) {
    const std::uint64_t before = BusCalls(f);
    EXPECT_TRUE(m.file_agent->Close(od).ok());
    return BusCalls(f) - before;
  };

  // The creator holds a promise, so its open is callback-local.
  auto od = *m.file_agent->Create(naming::ByName("one"),
                                  file::ServiceType::kBasic);
  const FileId id = *m.file_agent->FileOf(od);
  ASSERT_TRUE(m.file_agent->Pwrite(od, 0, data).ok());
  EXPECT_EQ(close_calls(od), 1u) << "dirty callback-local close";
  EXPECT_EQ(m.file_agent->DirtyBlocks(), 0u);
  EXPECT_EQ(m.file_agent->stats().writeback_batches, 1u);

  od = *m.file_agent->Open(naming::ByName("one"));
  EXPECT_EQ(close_calls(od), 0u) << "clean callback-local close";

  od = OpenAtServer(m, "one");
  ASSERT_TRUE(m.file_agent->Pwrite(od, kBlockSize, data).ok());
  EXPECT_EQ(close_calls(od), 1u) << "dirty close of a server open";
  EXPECT_EQ(m.file_agent->DirtyBlocks(), 0u);
  EXPECT_EQ(m.file_agent->stats().writeback_batches, 2u);

  od = OpenAtServer(m, "one");
  EXPECT_EQ(close_calls(od), 1u) << "clean close of a server open";
  EXPECT_EQ(m.file_agent->stats().writeback_batches, 2u)
      << "a batch that carries only a close is no write-back";

  std::vector<std::uint8_t> both = data;
  both.insert(both.end(), data.begin(), data.end());
  EXPECT_EQ(ColdRead(f, "one", 2 * kBlockSize), both);
  EXPECT_EQ(f.files().GetAttributes(id)->ref_count, 0u)
      << "every server open was closed by its batch";
}

TEST(ClientCacheTest, RefusedCloseKeepsTheDescriptorAndTheDirtyBlocks) {
  DistributedFileFacility f(CacheFacility());
  Machine& m = f.AddMachine();
  auto od = *m.file_agent->Create(naming::ByName("origin"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(m.file_agent->Pwrite(od, 0, Pattern(kBlockSize, 4)).ok());
  auto snap = m.file_agent->Snapshot(od);
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(m.file_agent->Close(od).ok());

  // The write-behind cache takes a write to the snapshot; its close is
  // where the server refuses it, like a deferred error of close(2).
  auto sd = m.file_agent->OpenById(*snap);
  ASSERT_TRUE(sd.ok());
  ASSERT_TRUE(m.file_agent->Pwrite(*sd, 0, Pattern(kBlockSize, 5)).ok());
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Status st = m.file_agent->Close(*sd);
    ASSERT_FALSE(st.ok()) << "attempt " << attempt;
    EXPECT_EQ(st.code(), ErrorCode::kPermissionDenied);
    EXPECT_TRUE(m.file_agent->FileOf(*sd).ok()) << "the descriptor stays";
    EXPECT_EQ(m.file_agent->DirtyBlocks(*snap), 1u) << "the block stays";
  }
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(f.files().Read(*snap, 0, out).ok());
  EXPECT_EQ(out, Pattern(kBlockSize, 4)) << "the snapshot kept its bytes";
}

TEST(ClientCacheTest, CloseRetriedAfterAFailedExchangeSucceeds) {
  FacilityConfig cfg = CacheFacility();
  cfg.agent.rpc.max_attempts = 2;  // fail fast while the service is down
  DistributedFileFacility f(cfg);
  Machine& m = f.AddMachine();
  auto od = *m.file_agent->Create(naming::ByName("retry"),
                                  file::ServiceType::kBasic);
  const FileId id = *m.file_agent->FileOf(od);
  ASSERT_TRUE(m.file_agent->Close(od).ok());
  od = OpenAtServer(m, "retry");
  const auto data = Pattern(2 * kBlockSize, 6);
  ASSERT_TRUE(m.file_agent->Pwrite(od, 0, data).ok());

  f.bus().SetServiceDown(core::kFileServiceAddress);
  EXPECT_FALSE(m.file_agent->Close(od).ok());
  EXPECT_TRUE(m.file_agent->FileOf(od).ok()) << "the descriptor stays";
  EXPECT_EQ(m.file_agent->DirtyBlocks(), 2u) << "the blocks stay dirty";
  f.bus().SetServiceUp(core::kFileServiceAddress);

  ASSERT_TRUE(m.file_agent->Close(od).ok());
  EXPECT_FALSE(m.file_agent->FileOf(od).ok());
  EXPECT_EQ(m.file_agent->DirtyBlocks(), 0u);
  EXPECT_EQ(ColdRead(f, "retry", data.size()), data);
  EXPECT_EQ(f.files().GetAttributes(id)->ref_count, 0u);
}

// The batch's first reply is lost after the server wrote the block and
// closed the file; the retransmission carries the same token, gets the
// remembered reply, and the close reports success.
TEST(ClientCacheTest, CloseWhoseReplyIsLostSucceedsOnTheRetransmission) {
  DistributedFileFacility f(CacheFacility());
  Machine& m = f.AddMachine();
  auto od = *m.file_agent->Create(naming::ByName("lossy"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(m.file_agent->Close(od).ok());
  od = OpenAtServer(m, "lossy");
  const auto data = Pattern(kBlockSize, 8);
  ASSERT_TRUE(m.file_agent->Pwrite(od, 0, data).ok());

  // The bus's loss draws, from its fixed seed, at this rate: the first
  // request arrives, its reply is lost, and the retransmission and its
  // reply both arrive.
  sim::NetworkConfig lossy = f.bus().config();
  lossy.drop_rate = 0.5;
  f.bus().SetConfig(lossy);
  EXPECT_TRUE(m.file_agent->Close(od).ok());
  lossy.drop_rate = 0.0;
  f.bus().SetConfig(lossy);
  ASSERT_EQ(f.bus().stats().drops_request, 0u);
  ASSERT_EQ(f.bus().stats().drops_reply, 1u);

  EXPECT_FALSE(m.file_agent->FileOf(od).ok());
  EXPECT_EQ(m.file_agent->DirtyBlocks(), 0u);
  EXPECT_EQ(ColdRead(f, "lossy", data.size()), data);
}

std::uint64_t MainWrites(DistributedFileFacility& f) {
  std::uint64_t n = 0;
  for (const auto& d : f.disks().disks()) n += d->main_stats().write_references;
  return n;
}

std::uint64_t StableWrites(DistributedFileFacility& f) {
  std::uint64_t n = 0;
  for (const auto& d : f.disks().disks()) {
    n += d->stable_stats().write_references;
  }
  return n;
}

// A callback-local close that wrote syncs its file: the block reaches the
// disk, but the access count the write raised is a soft attribute and
// earns no table store of its own. It waits in memory for the next one,
// which a FlushAll makes before a crash.
TEST(ClientCacheTest, WarmWriteCloseStoresNoTableForItsAccessCount) {
  DistributedFileFacility f(CacheFacility());
  Machine& m = f.AddMachine();
  auto od = *m.file_agent->Create(naming::ByName("warm"),
                                  file::ServiceType::kBasic);
  const FileId id = *m.file_agent->FileOf(od);
  ASSERT_TRUE(m.file_agent->Pwrite(od, 0, Pattern(kBlockSize, 4)).ok());
  ASSERT_TRUE(m.file_agent->Close(od).ok());  // the growth stores the table
  const std::uint64_t count = f.files().GetAttributes(id)->access_count;

  od = *m.file_agent->Open(naming::ByName("warm"));
  const std::uint64_t main_before = MainWrites(f);
  const std::uint64_t stable_before = StableWrites(f);
  const std::uint64_t stores_before = f.files().stats().fit_stores;
  const auto data = Pattern(kBlockSize, 5);
  ASSERT_TRUE(m.file_agent->Pwrite(od, 0, data).ok());
  ASSERT_TRUE(m.file_agent->Close(od).ok());
  EXPECT_EQ(MainWrites(f) - main_before, 1u) << "the block alone";
  EXPECT_EQ(StableWrites(f) - stable_before, 0u);
  EXPECT_EQ(f.files().stats().fit_stores, stores_before);
  EXPECT_EQ(f.files().GetAttributes(id)->access_count, count + 1);

  ASSERT_TRUE(f.files().FlushAll().ok());
  f.files().Crash();
  EXPECT_EQ(f.files().GetAttributes(id)->access_count, count + 1)
      << "the flush stored the access count";
  EXPECT_EQ(ColdRead(f, "warm", data.size()), data);
}

// A retransmitted close must not close twice: with a second holder's open
// pin on the file, the lost reply's retransmission replays the first
// reply, and only the closing agent's pin goes.
TEST(ClientCacheTest, RetransmittedCloseLeavesAnotherHoldersPin) {
  DistributedFileFacility f(CacheFacility());
  Machine& m = f.AddMachine();
  auto od = *m.file_agent->Create(naming::ByName("shared"),
                                  file::ServiceType::kBasic);
  const FileId id = *m.file_agent->FileOf(od);
  ASSERT_TRUE(m.file_agent->Close(od).ok());
  ASSERT_TRUE(f.files().Open(id).ok());  // the second holder
  od = OpenAtServer(m, "shared");
  const auto data = Pattern(kBlockSize, 9);
  ASSERT_TRUE(m.file_agent->Pwrite(od, 0, data).ok());
  ASSERT_EQ(f.files().GetAttributes(id)->ref_count, 2u);

  // As above: the first request arrives and its reply is lost.
  sim::NetworkConfig lossy = f.bus().config();
  lossy.drop_rate = 0.5;
  f.bus().SetConfig(lossy);
  EXPECT_TRUE(m.file_agent->Close(od).ok());
  lossy.drop_rate = 0.0;
  f.bus().SetConfig(lossy);
  ASSERT_EQ(f.bus().stats().drops_request, 0u);
  ASSERT_EQ(f.bus().stats().drops_reply, 1u);

  EXPECT_EQ(f.files().GetAttributes(id)->ref_count, 1u)
      << "the retransmission must not drop the second holder's pin";
  EXPECT_EQ(f.file_server().stats().duplicate_replays, 1u);
  EXPECT_EQ(ColdRead(f, "shared", data.size()), data);
}

}  // namespace
}  // namespace rhodos::agent
