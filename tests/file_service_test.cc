// Tests for the basic file service (paper §5): flat files, index-table
// persistence to stable storage, caching policies, growth/striping, and
// the block-level interface the transaction service uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "file/file_service.h"
#include "file/fsck.h"

namespace rhodos::file {
namespace {

disk::DiskServerConfig DiskConfig(std::uint64_t fragments = 4096) {
  disk::DiskServerConfig c;
  c.geometry.total_fragments = fragments;
  c.geometry.fragments_per_track = 32;
  c.cache_capacity_tracks = 16;
  return c;
}

class FileServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disks_.AddDisk(DiskConfig(), &clock_);
    service_ = std::make_unique<FileService>(&disks_, &clock_,
                                             FileServiceConfig{});
  }

  std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed = 1) {
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<std::uint8_t>(seed + i * 31);
    }
    return v;
  }

  SimClock clock_;
  disk::DiskRegistry disks_;
  std::unique_ptr<FileService> service_;
};

TEST_F(FileServiceTest, CreateWriteReadDelete) {
  auto file = service_->Create(ServiceType::kBasic);
  ASSERT_TRUE(file.ok());
  const auto data = Pattern(1000);
  auto n = service_->Write(*file, 0, data);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1000u);
  std::vector<std::uint8_t> out(1000);
  auto m = service_->Read(*file, 0, out);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m, 1000u);
  EXPECT_EQ(out, data);
  ASSERT_TRUE(service_->Delete(*file).ok());
  EXPECT_FALSE(service_->Read(*file, 0, out).ok());
}

// Regression: a write whose end passed 2^64 wrapped, grew nothing and
// wrote its tail over the start of the file.
TEST_F(FileServiceTest, WriteWrappingPastTheAddressSpaceIsRefused) {
  auto file = service_->Create(ServiceType::kBasic);
  ASSERT_TRUE(file.ok());
  const std::vector<std::uint8_t> sevens(100, 7);
  ASSERT_TRUE(service_->Write(*file, 0, sevens).ok());
  auto n = service_->Write(*file, ~std::uint64_t{0} - 50,
                           std::vector<std::uint8_t>(200, 9));
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.error().code, ErrorCode::kInvalidArgument);
  std::vector<std::uint8_t> out(100);
  ASSERT_TRUE(service_->Read(*file, 0, out).ok());
  EXPECT_EQ(out, sevens);
  EXPECT_EQ(service_->GetAttributes(*file)->size, 100u);
  EXPECT_TRUE(service_->Close(*file).ok());
}

// Regression: Resize rounded the size up to blocks by adding, so a size
// within a block of 2^64 wrapped to 0 blocks: it freed every block, said
// OK, and left the file claiming 2^64-1 bytes it could not read.
TEST_F(FileServiceTest, ResizeNearTheAddressSpaceLimitIsRefused) {
  auto file = service_->Create(ServiceType::kBasic);
  ASSERT_TRUE(file.ok());
  const auto data = Pattern(3 * kBlockSize);
  ASSERT_TRUE(service_->Write(*file, 0, data).ok());
  ASSERT_TRUE(service_->Flush(*file).ok());
  const std::uint64_t free_before = disks_.TotalFreeFragments();
  for (const std::uint64_t size :
       {~std::uint64_t{0}, ~std::uint64_t{0} - kBlockSize + 2,
        std::uint64_t{1} << 63}) {
    const Status st = service_->Resize(*file, size);
    ASSERT_FALSE(st.ok()) << size;
    EXPECT_EQ(st.error().code, ErrorCode::kNoSpace) << size;
    EXPECT_EQ(*service_->BlockCount(*file), 3u) << size;
    EXPECT_EQ(service_->GetAttributes(*file)->size, data.size()) << size;
    EXPECT_EQ(disks_.TotalFreeFragments(), free_before) << size;
  }
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(service_->Read(*file, 0, out).ok());
  EXPECT_EQ(out, data);
  const std::vector<FileId> ids = {*file};
  const AuditReport report = AuditFiles(*service_, ids);
  EXPECT_TRUE(report.clean()) << report.issues.size() << " issues";
}

// Regression: a size hint of 2^30 blocks wrapped the one-run allocation
// size (table fragment + 4 fragments a block) past 2^32 to a fragment or
// five, and the table then mapped 2^30 blocks that nobody had allocated.
TEST_F(FileServiceTest, CreateWithAHintNoDiskHoldsIsRefused) {
  const std::uint64_t free_before = disks_.TotalFreeFragments();
  for (const std::uint64_t hint :
       {std::uint64_t{1} << 43, (std::uint64_t{1} << 43) + 1,
        ~std::uint64_t{0}}) {
    auto file = service_->Create(ServiceType::kBasic, hint);
    ASSERT_FALSE(file.ok()) << hint;
    EXPECT_EQ(file.error().code, ErrorCode::kNoSpace) << hint;
    EXPECT_EQ(disks_.TotalFreeFragments(), free_before) << hint;
  }
}

// Regression: a growth that ran out of space kept every extent it had
// allocated, so the free pool drained for good, across a crash too.
TEST(FileServiceGrowthTest, FailedGrowthGivesBackWhatItAllocated) {
  SimClock clock;
  disk::DiskRegistry disks;
  disks.AddDisk(DiskConfig(16 * 1024), &clock);
  auto service = std::make_unique<FileService>(&disks, &clock);
  auto file = service->Create(ServiceType::kBasic);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(service->Flush(*file).ok());
  const std::uint64_t free_before = disks.TotalFreeFragments();
  auto n = service->Write(*file, std::uint64_t{1} << 40,
                          std::vector<std::uint8_t>(100, 9));
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.error().code, ErrorCode::kNoSpace);
  EXPECT_EQ(disks.TotalFreeFragments(), free_before);
  EXPECT_EQ(*service->BlockCount(*file), 0u);
  auto big = service->Create(ServiceType::kBasic, 64 * 1024);
  ASSERT_TRUE(big.ok()) << big.error().message;

  const std::uint64_t free_with_big = disks.TotalFreeFragments();
  service->Crash();
  disks.CrashAll();
  ASSERT_TRUE(disks.RecoverAll().ok());
  service = std::make_unique<FileService>(&disks, &clock);
  EXPECT_EQ(disks.TotalFreeFragments(), free_with_big);
  const std::vector<FileId> ids = {*file, *big};
  const AuditReport report = AuditFiles(*service, ids);
  EXPECT_TRUE(report.clean()) << report.issues.size() << " issues";
}

// A create whose size hint fits no disk in one run takes table plus first
// block, then grows over the disks. It used to store its table while the
// zero-fill of the grown blocks sat dirty in the cache, so a crash exposed
// the platters' old bytes, and an eviction during the growth could not
// find the table it had not stored yet.
TEST(FileServiceGrowthTest, CreateThatGrowsLeavesNoDirtyBlock) {
  SimClock clock;
  disk::DiskRegistry disks;
  disks.AddDisk(DiskConfig(1024), &clock);
  disks.AddDisk(DiskConfig(1024), &clock);
  FileServiceConfig config;
  config.block_pool_capacity = 4;
  auto service = std::make_unique<FileService>(&disks, &clock, config);

  // Leave old bytes on most of the platters.
  std::vector<FileId> old;
  for (int i = 0; i < 2; ++i) {
    auto f = service->Create(ServiceType::kBasic, 200 * kBlockSize);
    ASSERT_TRUE(f.ok()) << f.error().message;
    ASSERT_TRUE(service->Write(*f, 0, std::vector<std::uint8_t>(
                                          200 * kBlockSize, 0xEE))
                    .ok());
    ASSERT_TRUE(service->Flush(*f).ok());
    old.push_back(*f);
  }
  for (FileId f : old) ASSERT_TRUE(service->Delete(f).ok());

  const std::uint64_t blocks = 300;  // more than one disk holds
  auto big = service->Create(ServiceType::kBasic, blocks * kBlockSize);
  ASSERT_TRUE(big.ok()) << big.error().message;
  ASSERT_EQ(*service->BlockCount(*big), blocks);
  ASSERT_GT(service->FileRuns(*big)->size(), 1u);

  // Nothing the create did waits in memory: a restarted service reads
  // every block as the creating one does, the grown ones as zeros.
  std::vector<std::vector<std::uint8_t>> seen(
      blocks, std::vector<std::uint8_t>(kBlockSize));
  for (std::uint64_t b = 0; b < blocks; ++b) {
    ASSERT_TRUE(service->ReadBlock(*big, b, seen[b]).ok());
  }
  EXPECT_EQ(seen.back(), std::vector<std::uint8_t>(kBlockSize, 0));
  service->Crash();
  service = std::make_unique<FileService>(&disks, &clock, config);
  std::vector<std::uint8_t> out(kBlockSize);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    ASSERT_TRUE(service->ReadBlock(*big, b, out).ok());
    ASSERT_EQ(out, seen[b]) << "block " << b;
  }
  const std::vector<FileId> ids = {*big};
  const AuditReport report = AuditFiles(*service, ids);
  EXPECT_TRUE(report.clean()) << report.issues.size() << " issues";
}

// A size hint maps its run without writing it. A deleted file's bytes used
// to show through when a growing Resize or a write with a gap before it
// exposed that run; those bytes must read as zeros.
class UnwrittenHintTest : public FileServiceTest {
 protected:
  // Leaves 0xAB on the blocks a 4-block hint maps next, then creates it.
  FileId HintedFileOverOldBytes() {
    auto old = service_->Create(ServiceType::kBasic);
    EXPECT_TRUE(old.ok());
    EXPECT_TRUE(service_
                    ->Write(*old, 0,
                            std::vector<std::uint8_t>(4 * kBlockSize, 0xAB))
                    .ok());
    EXPECT_TRUE(service_->Flush(*old).ok());
    const FragmentIndex first = service_->LocateBlock(*old, 0)->first_fragment;
    EXPECT_TRUE(service_->Delete(*old).ok());
    auto file = service_->Create(ServiceType::kBasic, 4 * kBlockSize);
    EXPECT_TRUE(file.ok());
    // The new run reuses the old blocks, so the test can see them.
    EXPECT_EQ(service_->LocateBlock(*file, 0)->first_fragment, first);
    return *file;
  }
  std::uint64_t NonzeroBytes(FileId file, std::uint64_t length) {
    std::vector<std::uint8_t> out(length);
    EXPECT_EQ(*service_->Read(file, 0, out), length);
    return static_cast<std::uint64_t>(
        std::count_if(out.begin(), out.end(), [](auto b) { return b != 0; }));
  }
};

TEST_F(UnwrittenHintTest, GrowingResizeExposesZeros) {
  const FileId file = HintedFileOverOldBytes();
  ASSERT_TRUE(service_->Resize(file, 2 * kBlockSize).ok());
  EXPECT_EQ(NonzeroBytes(file, 2 * kBlockSize), 0u);
  // And after the cache is gone: the zeros reached the platter.
  ASSERT_TRUE(service_->Close(file).ok());
  service_->Crash();
  EXPECT_EQ(NonzeroBytes(file, 2 * kBlockSize), 0u);
}

TEST_F(UnwrittenHintTest, WriteAfterAGapExposesZerosBeforeIt) {
  const FileId file = HintedFileOverOldBytes();
  const std::vector<std::uint8_t> ten(10, 0x5C);
  ASSERT_TRUE(service_->Write(file, 3 * kBlockSize, ten).ok());
  EXPECT_EQ(NonzeroBytes(file, 3 * kBlockSize), 0u);
  std::vector<std::uint8_t> out(10);
  ASSERT_TRUE(service_->Read(file, 3 * kBlockSize, out).ok());
  EXPECT_EQ(out, ten);
}

TEST_F(UnwrittenHintTest, GrowthAfterAReloadStillExposesZeros) {
  const FileId file = HintedFileOverOldBytes();
  ASSERT_TRUE(service_->Close(file).ok());
  service_->Crash();
  ASSERT_TRUE(service_->Resize(file, 3 * kBlockSize).ok());
  EXPECT_EQ(NonzeroBytes(file, 3 * kBlockSize), 0u);
}

// A transaction's page apply writes a mapped block past the size, then
// grows the size over it: the growth keeps that block and zeroes the rest.
TEST_F(UnwrittenHintTest, GrowthKeepsABlockWrittenPastTheSize) {
  const FileId file = HintedFileOverOldBytes();
  const auto page = Pattern(kBlockSize, 0x11);
  ASSERT_TRUE(service_->WriteBlock(file, 2, page).ok());
  ASSERT_TRUE(service_->Resize(file, 2 * kBlockSize + 100).ok());
  EXPECT_EQ(NonzeroBytes(file, 2 * kBlockSize), 0u);
  std::vector<std::uint8_t> out(100);
  ASSERT_TRUE(service_->Read(file, 2 * kBlockSize, out).ok());
  EXPECT_EQ(out, std::vector<std::uint8_t>(page.begin(), page.begin() + 100));
}

TEST_F(FileServiceTest, SyncWritesOnlyThatFilesDirtyBlocks) {
  auto a = service_->Create(ServiceType::kBasic);
  auto b = service_->Create(ServiceType::kBasic);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(service_->Flush(*a).ok() && service_->Flush(*b).ok());
  ASSERT_TRUE(service_->Write(*a, 0, Pattern(3 * kBlockSize, 1)).ok());
  ASSERT_TRUE(service_->Write(*b, 0, Pattern(2 * kBlockSize, 2)).ok());
  // Sync stores a grown file's table too; only data blocks are counted.
  ASSERT_TRUE(service_->Sync(*a).ok());
  ASSERT_TRUE(service_->Sync(*b).ok());
  ASSERT_TRUE(service_->Write(*a, 0, Pattern(3 * kBlockSize, 3)).ok());
  ASSERT_TRUE(service_->Write(*b, 0, Pattern(2 * kBlockSize, 4)).ok());

  disk::DiskServer* disk = *disks_.Get(DiskId{0});
  auto platter = [&](FileId f, std::uint64_t block) {
    const FragmentIndex frag = service_->LocateBlock(f, block)->first_fragment;
    return disk->main_device().RawFragment(frag)[0];
  };
  const auto written = [&] { return disk->main_stats().fragments_written; };
  const std::uint64_t before = written();
  ASSERT_TRUE(service_->Sync(*a).ok());
  EXPECT_EQ(written() - before, 3 * kFragmentsPerBlock)
      << "Sync(a) writes a's three dirty blocks and nothing else";
  for (std::uint64_t blk = 0; blk < 3; ++blk) {
    EXPECT_EQ(platter(*a, blk), Pattern(kBlockSize, 3)[0]);
  }
  for (std::uint64_t blk = 0; blk < 2; ++blk) {
    EXPECT_EQ(platter(*b, blk), Pattern(kBlockSize, 2)[0])
        << "b's new bytes must still wait in the cache";
  }
  const std::uint64_t after_a = written();
  ASSERT_TRUE(service_->Sync(*b).ok());
  EXPECT_EQ(written() - after_a, 2 * kFragmentsPerBlock);
  EXPECT_EQ(platter(*b, 0), Pattern(kBlockSize, 4)[0]);
}

TEST(FileServiceCacheTest, CacheNeverHoldsMoreThanThePoolCapacity) {
  for (const std::size_t capacity : {0u, 1u, 3u, 8u}) {
    SCOPED_TRACE(capacity);
    SimClock clock;
    disk::DiskRegistry disks;
    disks.AddDisk(DiskConfig(), &clock);
    FileServiceConfig config;
    config.block_pool_capacity = capacity;
    FileService service(&disks, &clock, config);
    const std::size_t bound = std::max<std::size_t>(capacity, 1);
    auto a = service.Create(ServiceType::kBasic, 4 * kBlockSize);
    auto b = service.Create(ServiceType::kBasic);
    ASSERT_TRUE(a.ok() && b.ok());
    std::vector<std::uint8_t> out(3 * kBlockSize);
    for (std::uint64_t i = 0; i < 12; ++i) {
      ASSERT_TRUE(service
                      .Write(i % 2 ? *a : *b, (i % 5) * kBlockSize,
                             std::vector<std::uint8_t>(kBlockSize + 7, 1))
                      .ok());
      EXPECT_LE(service.CachedBlocks(), bound) << "after write " << i;
      ASSERT_TRUE(service.Read(*a, 0, out).ok());
      EXPECT_LE(service.CachedBlocks(), bound) << "after read " << i;
      if (capacity == 0) {
        EXPECT_EQ(service.CachedBlocks(), 1u);
      }
    }
    ASSERT_TRUE(service.Sync(*a).ok());
    EXPECT_LE(service.CachedBlocks(), bound);
  }
}

// Create persists the bitmap asynchronously. Each image replaces the one
// still queued for the mirror, so creates leave at most one queued, and a
// drain leaves the mirror equal to the last persisted image.
TEST_F(FileServiceTest, CreatesQueueAtMostOneBitmapImageForTheMirror) {
  disk::DiskServer& disk = **disks_.Get(DiskId{0});
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(service_->Create(ServiceType::kBasic, kBlockSize).ok());
    EXPECT_LE(disk.PendingStableWrites(), 1u);
  }
  const auto n = static_cast<std::uint32_t>(disk.MetadataFragments());
  std::vector<std::uint8_t> main(n * kFragmentSize);
  ASSERT_TRUE(disk.GetBlock(0, n, main).ok());
  ASSERT_TRUE(disk.DrainStableWrites().ok());
  EXPECT_EQ(disk.PendingStableWrites(), 0u);
  std::vector<std::uint8_t> mirror(n * kFragmentSize);
  ASSERT_TRUE(disk.GetBlock(0, n, mirror, disk::ReadSource::kStable).ok());
  EXPECT_EQ(mirror, main);
}

TEST_F(FileServiceTest, DeleteReturnsAllSpace) {
  const std::uint64_t free_before = disks_.TotalFreeFragments();
  auto file = service_->Create(ServiceType::kBasic, 64 * 1024);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(service_->Write(*file, 0, Pattern(64 * 1024)).ok());
  ASSERT_TRUE(service_->Delete(*file).ok());
  EXPECT_EQ(disks_.TotalFreeFragments(), free_before);
}

TEST_F(FileServiceTest, ReadAtEofAndBeyond) {
  auto file = service_->Create(ServiceType::kBasic);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(service_->Write(*file, 0, Pattern(100)).ok());
  std::vector<std::uint8_t> out(50);
  EXPECT_EQ(*service_->Read(*file, 100, out), 0u);
  EXPECT_EQ(*service_->Read(*file, 1000, out), 0u);
  EXPECT_EQ(*service_->Read(*file, 80, out), 20u);  // short read at EOF
}

TEST_F(FileServiceTest, SparseWriteThenReadBack) {
  auto file = service_->Create(ServiceType::kBasic);
  ASSERT_TRUE(file.ok());
  const auto data = Pattern(128, 9);
  // Write far past the start; everything before is unwritten space.
  ASSERT_TRUE(service_->Write(*file, 50'000, data).ok());
  auto attrs = service_->GetAttributes(*file);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->size, 50'128u);
  std::vector<std::uint8_t> out(128);
  ASSERT_TRUE(service_->Read(*file, 50'000, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(FileServiceTest, OverwriteMiddleOfBlock) {
  auto file = service_->Create(ServiceType::kBasic);
  ASSERT_TRUE(file.ok());
  auto base = Pattern(3 * kBlockSize, 1);
  ASSERT_TRUE(service_->Write(*file, 0, base).ok());
  const auto patch = Pattern(100, 77);
  ASSERT_TRUE(service_->Write(*file, kBlockSize + 500, patch).ok());
  std::vector<std::uint8_t> out(3 * kBlockSize);
  ASSERT_TRUE(service_->Read(*file, 0, out).ok());
  std::copy(patch.begin(), patch.end(),
            base.begin() + static_cast<long>(kBlockSize + 500));
  EXPECT_EQ(out, base);
}

TEST_F(FileServiceTest, SizeHintGivesContiguousLayout) {
  auto file = service_->Create(ServiceType::kBasic, 256 * 1024);
  ASSERT_TRUE(file.ok());
  auto contiguous = service_->IsContiguous(*file);
  ASSERT_TRUE(contiguous.ok());
  EXPECT_TRUE(*contiguous);
  EXPECT_DOUBLE_EQ(*service_->ContiguityIndex(*file), 1.0);
  // The index table sits immediately before the first data block.
  auto loc = service_->LocateBlock(*file, 0);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->first_fragment, FileFitFragment(*file) + 1);
}

TEST_F(FileServiceTest, GrowthExtendsInPlaceWhenPossible) {
  auto file = service_->Create(ServiceType::kBasic, kBlockSize);
  ASSERT_TRUE(file.ok());
  // Grow the file in several writes; with a quiet disk the extension stays
  // adjacent and the file remains one run.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        service_->Write(*file, i * kBlockSize, Pattern(kBlockSize)).ok());
  }
  EXPECT_TRUE(*service_->IsContiguous(*file));
}

TEST_F(FileServiceTest, AttributesPersistAcrossCacheDrop) {
  auto file = service_->Create(ServiceType::kTransaction);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(service_->SetLockLevel(*file, LockLevel::kRecord).ok());
  ASSERT_TRUE(service_->Write(*file, 0, Pattern(500)).ok());
  ASSERT_TRUE(service_->Flush(*file).ok());
  service_->Crash();  // drop all in-memory state
  auto attrs = service_->GetAttributes(*file);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->service_type, ServiceType::kTransaction);
  EXPECT_EQ(attrs->locking_level, LockLevel::kRecord);
  EXPECT_EQ(attrs->size, 500u);
}

TEST_F(FileServiceTest, IndexTableRecoverableFromStableStorage) {
  auto file = service_->Create(ServiceType::kBasic);
  ASSERT_TRUE(file.ok());
  const auto data = Pattern(2000);
  ASSERT_TRUE(service_->Write(*file, 0, data).ok());
  ASSERT_TRUE(service_->Flush(*file).ok());
  service_->Crash();
  // Corrupt the MAIN copy of the index table fragment.
  auto server = disks_.Get(FileDisk(*file));
  std::vector<std::uint8_t> garbage(kFragmentSize, 0xFF);
  (*server)->main_device().RawOverwrite(FileFitFragment(*file), garbage);
  (*server)->Crash();
  ASSERT_TRUE((*server)->Recover().ok());
  // The service falls back to the stable copy — "a copy of the file index
  // table is always available in stable storage" (§5).
  std::vector<std::uint8_t> out(2000);
  auto n = service_->Read(*file, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(out, data);
}

TEST_F(FileServiceTest, BasicFilesUseDelayedWrite) {
  auto file = service_->Create(ServiceType::kBasic);
  ASSERT_TRUE(file.ok());
  auto server = disks_.Get(DiskId{0});
  (*server)->ResetStats();
  service_->ResetStats();
  ASSERT_TRUE(service_->Write(*file, 0, Pattern(kBlockSize)).ok());
  // No data write reached the disk yet (only possible FIT traffic).
  const auto writes_before_flush = (*server)->main_stats().fragments_written;
  ASSERT_TRUE(service_->Flush(*file).ok());
  EXPECT_GT((*server)->main_stats().fragments_written, writes_before_flush);
}

TEST_F(FileServiceTest, TransactionFilesWriteThrough) {
  auto file = service_->Create(ServiceType::kTransaction);
  ASSERT_TRUE(file.ok());
  auto loc = service_->LocateBlock(*file, 0);
  // The file needs a block first; write one.
  ASSERT_TRUE(service_->Write(*file, 0, Pattern(kBlockSize, 5)).ok());
  loc = service_->LocateBlock(*file, 0);
  ASSERT_TRUE(loc.ok());
  auto server = disks_.Get(loc->disk);
  // The platter already holds the data without any flush.
  EXPECT_EQ((*server)->main_device().RawFragment(loc->first_fragment)[0],
            Pattern(1, 5)[0]);
}

TEST_F(FileServiceTest, CacheHitsOnRepeatedReads) {
  auto file = service_->Create(ServiceType::kBasic);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(service_->Write(*file, 0, Pattern(4 * kBlockSize)).ok());
  std::vector<std::uint8_t> out(4 * kBlockSize);
  ASSERT_TRUE(service_->Read(*file, 0, out).ok());
  service_->ResetStats();
  ASSERT_TRUE(service_->Read(*file, 0, out).ok());
  EXPECT_EQ(service_->stats().cache_misses, 0u);
  EXPECT_EQ(service_->stats().cache_hits, 4u);
}

TEST_F(FileServiceTest, ResizeShrinkFreesSpaceAndDropsTail) {
  auto file = service_->Create(ServiceType::kBasic);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(service_->Write(*file, 0, Pattern(8 * kBlockSize)).ok());
  const std::uint64_t free_mid = disks_.TotalFreeFragments();
  ASSERT_TRUE(service_->Resize(*file, 2 * kBlockSize).ok());
  EXPECT_GT(disks_.TotalFreeFragments(), free_mid);
  auto attrs = service_->GetAttributes(*file);
  EXPECT_EQ(attrs->size, 2 * kBlockSize);
  std::vector<std::uint8_t> out(kBlockSize);
  EXPECT_EQ(*service_->Read(*file, 3 * kBlockSize, out), 0u);
}

TEST_F(FileServiceTest, OpenCloseRefCounting) {
  auto file = service_->Create(ServiceType::kBasic);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(service_->Open(*file).ok());
  ASSERT_TRUE(service_->Open(*file).ok());
  auto attrs = service_->GetAttributes(*file);
  EXPECT_EQ(attrs->ref_count, 2u);
  ASSERT_TRUE(service_->Close(*file).ok());
  ASSERT_TRUE(service_->Close(*file).ok());
  EXPECT_EQ(service_->Close(*file).code(), ErrorCode::kBadDescriptor);
}

// --- the counted cost of close ------------------------------------------------
// Close completes delayed writes and stores the index table only for hard
// changes (size, runs, type, lock level). Access counts and read times never
// pay a synchronous table store to the main copy and the stable mirror.

class CloseCostTest : public FileServiceTest {
 protected:
  // A closed file of `blocks` written blocks, then zeroed counters: what
  // the next open/close costs is all that shows.
  FileId SettledFile(std::uint64_t blocks) {
    auto file = service_->Create(ServiceType::kBasic, blocks * kBlockSize);
    EXPECT_TRUE(file.ok());
    if (blocks > 0) {
      EXPECT_TRUE(
          service_->Write(*file, 0, Pattern(blocks * kBlockSize)).ok());
    }
    EXPECT_TRUE(service_->Close(*file).ok());
    service_->ResetStats();
    Disk()->ResetStats();
    return *file;
  }
  disk::DiskServer* Disk() { return *disks_.Get(DiskId{0}); }
};

TEST_F(CloseCostTest, ReadOnlyCloseStoresNoTable) {
  const FileId file = SettledFile(2);
  ASSERT_TRUE(service_->Open(file).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(service_->Read(file, 0, out).ok());
  ASSERT_TRUE(service_->Close(file).ok());
  EXPECT_EQ(service_->stats().fit_loads, 1u);  // open still reads the table
  EXPECT_EQ(service_->stats().fit_stores, 0u);
  EXPECT_EQ(Disk()->main_stats().write_references, 0u);
  EXPECT_EQ(Disk()->stable_stats().write_references, 0u);
}

TEST_F(CloseCostTest, InPlaceOverwriteCloseWritesOnlyData) {
  const FileId file = SettledFile(4);
  ASSERT_TRUE(service_->Open(file).ok());
  ASSERT_TRUE(service_->Write(file, kBlockSize, Pattern(kBlockSize, 9)).ok());
  ASSERT_TRUE(service_->Close(file).ok());
  EXPECT_EQ(service_->stats().fit_stores, 0u);
  EXPECT_EQ(Disk()->main_stats().write_references, 1u);
  EXPECT_EQ(Disk()->main_stats().fragments_written, kFragmentsPerBlock);
  EXPECT_EQ(Disk()->stable_stats().write_references, 0u);
}

TEST_F(CloseCostTest, GrowingWriteStoresTheTableOnce) {
  const FileId file = SettledFile(0);
  ASSERT_TRUE(service_->Open(file).ok());
  ASSERT_TRUE(service_->Write(file, 0, Pattern(kBlockSize)).ok());
  ASSERT_TRUE(service_->Close(file).ok());
  EXPECT_EQ(service_->stats().fit_stores, 1u);
  EXPECT_EQ(Disk()->stable_stats().write_references, 1u);  // the FIT mirror
  EXPECT_EQ(service_->GetAttributes(file)->size, kBlockSize);
}

TEST_F(FileServiceTest, ReplaceBlockRelinksAndFreesOld) {
  auto file = service_->Create(ServiceType::kBasic, 4 * kBlockSize);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(service_->Write(*file, 0, Pattern(4 * kBlockSize)).ok());
  ASSERT_TRUE(service_->Flush(*file).ok());
  auto old_loc = service_->LocateBlock(*file, 1);
  ASSERT_TRUE(old_loc.ok());

  // Stage a shadow block with fresh content and relink.
  auto shadows = service_->AllocateShadowBlocks(*file, 1);
  ASSERT_TRUE(shadows.ok());
  const auto* shadow = &shadows->front();
  auto server = disks_.Get(shadow->disk);
  const auto fresh = Pattern(kBlockSize, 0xCC);
  ASSERT_TRUE(
      (*server)->PutBlock(shadow->first, kFragmentsPerBlock, fresh).ok());
  ASSERT_TRUE(
      service_->ReplaceBlocks(*file, {{1, shadow->disk, shadow->first}}).ok());

  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(service_->Read(*file, kBlockSize, out).ok());
  EXPECT_EQ(out, fresh);
  EXPECT_FALSE(*service_->IsContiguous(*file));
  // The old block's fragments are free again.
  auto old_server = disks_.Get(old_loc->disk);
  EXPECT_TRUE((*old_server)
                  ->AllocateSpecific(old_loc->first_fragment,
                                     kFragmentsPerBlock)
                  .ok());
}

TEST_F(FileServiceTest, LargeFileUsesIndirectBlocksAndSurvivesReload) {
  // Force many separate runs by disabling in-place extension and using tiny
  // extents on a fragmented disk.
  FileServiceConfig cfg;
  cfg.extent_blocks = 1;
  cfg.extend_in_place = false;
  disk::DiskRegistry disks;
  disks.AddDisk(DiskConfig(16384), &clock_);
  FileService svc(&disks, &clock_, cfg);

  auto file = svc.Create(ServiceType::kBasic);
  ASSERT_TRUE(file.ok());
  const std::size_t blocks = kDirectRuns + 20;  // forces indirect blocks
  const auto data = Pattern(kBlockSize, 3);
  for (std::size_t i = 0; i < blocks; ++i) {
    ASSERT_TRUE(svc.Write(*file, i * kBlockSize, data).ok());
  }
  ASSERT_TRUE(svc.Flush(*file).ok());
  svc.Crash();  // drop the cached table; reload from disk
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(svc.Read(*file, (blocks - 1) * kBlockSize, out).ok());
  EXPECT_EQ(out, data);
  auto attrs = svc.GetAttributes(*file);
  EXPECT_EQ(attrs->size, blocks * kBlockSize);
}

TEST_F(FileServiceTest, StripingSpreadsExtentsAcrossDisks) {
  disk::DiskRegistry disks;
  for (int i = 0; i < 4; ++i) disks.AddDisk(DiskConfig(), &clock_);
  FileServiceConfig cfg;
  cfg.extent_blocks = 4;
  cfg.extend_in_place = false;  // force extents onto rotating disks
  FileService svc(&disks, &clock_, cfg);

  auto file = svc.Create(ServiceType::kBasic);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(svc.Write(*file, 0, Pattern(32 * kBlockSize)).ok());
  std::set<std::uint32_t> disks_used;
  for (std::uint64_t b = 0; b < 32; ++b) {
    auto loc = svc.LocateBlock(*file, b);
    ASSERT_TRUE(loc.ok());
    disks_used.insert(loc->disk.value);
  }
  EXPECT_GE(disks_used.size(), 3u);
  // Content still reads back correctly across the stripes.
  std::vector<std::uint8_t> out(32 * kBlockSize);
  ASSERT_TRUE(svc.Read(*file, 0, out).ok());
  EXPECT_EQ(out, Pattern(32 * kBlockSize));
}

TEST_F(FileServiceTest, ContiguousReadIsOneDiskReference) {
  auto file = service_->Create(ServiceType::kBasic, 16 * kBlockSize);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(service_->Write(*file, 0, Pattern(16 * kBlockSize)).ok());
  ASSERT_TRUE(service_->FlushAll().ok());
  service_->Crash();  // cold caches
  auto server = disks_.Get(DiskId{0});
  (*server)->Crash();
  ASSERT_TRUE((*server)->Recover().ok());
  (*server)->ResetStats();

  std::vector<std::uint8_t> out(16 * kBlockSize);
  ASSERT_TRUE(service_->Read(*file, 0, out).ok());
  // One reference for the index table, one for all 16 contiguous blocks —
  // the paper's "maximum number of disk references is two".
  EXPECT_LE((*server)->main_stats().read_references, 2u);
}

}  // namespace
}  // namespace rhodos::file
