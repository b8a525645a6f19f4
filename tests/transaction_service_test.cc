// Tests for the transaction service (paper §6): atomicity, isolation via
// tentative data items, the WAL/shadow commit rule, timeout aborts, and
// crash recovery from the intentions list.
#include <gtest/gtest.h>

#include "file/file_service.h"
#include "sim/parallel.h"
#include "txn/transaction_service.h"

namespace rhodos::txn {
namespace {

using file::FileService;
using file::FileServiceConfig;
using file::LockLevel;
using file::ServiceType;

disk::DiskServerConfig DiskConfig() {
  disk::DiskServerConfig c;
  c.geometry.total_fragments = 8192;
  c.geometry.fragments_per_track = 32;
  c.cache_capacity_tracks = 16;
  return c;
}

class TxnServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { Rebuild(TxnServiceConfig{}); }

  void Rebuild(TxnServiceConfig cfg, int disk_count = 1) {
    txn_.reset();
    files_.reset();
    disks_ = std::make_unique<disk::DiskRegistry>();
    for (int d = 0; d < disk_count; ++d) disks_->AddDisk(DiskConfig(), &clock_);
    files_ = std::make_unique<FileService>(disks_.get(), &clock_,
                                           FileServiceConfig{});
    txn_ = std::make_unique<TransactionService>(
        disks_.get(), [this](FileId) -> FileService& { return *files_; }, cfg);
  }

  // Restart services after a crash, reusing the same disks (the platters).
  void Restart(TxnServiceConfig cfg = {}) {
    txn_.reset();
    files_.reset();
    files_ = std::make_unique<FileService>(disks_.get(), &clock_,
                                           FileServiceConfig{});
    txn_ = std::make_unique<TransactionService>(
        disks_.get(), [this](FileId) -> FileService& { return *files_; }, cfg);
  }

  std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed = 1) {
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<std::uint8_t>(seed + i * 13);
    }
    return v;
  }

  FileId MakeFile(LockLevel level, std::uint64_t bytes,
                  std::uint8_t fill = 1) {
    auto txn = txn_->Begin(ProcessId{1});
    auto file = txn_->TCreate(*txn, level, bytes);
    EXPECT_TRUE(file.ok());
    if (bytes > 0) {
      EXPECT_TRUE(txn_->TWrite(*txn, *file, 0, Pattern(bytes, fill)).ok());
    }
    EXPECT_TRUE(txn_->End(*txn).ok());
    return *file;
  }

  SimClock clock_;
  std::unique_ptr<disk::DiskRegistry> disks_;
  std::unique_ptr<FileService> files_;
  std::unique_ptr<TransactionService> txn_;
};

// End()'s elapsed sim time against the time every device charged during
// it: the two are equal when the commit's references run one after
// another, and the gap is what overlapped lanes saved.
struct EndCost {
  SimTime elapsed = 0;
  SimTime device = 0;
};

EndCost TimedEnd(TransactionService& txn, TxnId t, disk::DiskRegistry& disks,
                 SimClock& clock) {
  auto device_time = [&disks] {
    SimTime sum = 0;
    for (const auto& d : disks.disks()) {
      sum += d->main_stats().time_charged + d->stable_stats().time_charged;
    }
    return sum;
  };
  const SimTime device_before = device_time();
  const SimTime t0 = clock.Now();
  EXPECT_TRUE(txn.End(t).ok());
  return EndCost{clock.Now() - t0, device_time() - device_before};
}

// Makes `file` non-contiguous so its commits take the shadow-page path.
void Fragment(FileService& files, disk::DiskRegistry& disks, FileId file) {
  auto shadow = files.AllocateShadowBlock(file);
  ASSERT_TRUE(shadow.ok());
  std::vector<std::uint8_t> image(kBlockSize);
  ASSERT_TRUE(files.ReadBlock(file, 1, image).ok());
  ASSERT_TRUE((*disks.Get(shadow->disk))
                  ->PutBlock(shadow->first, kFragmentsPerBlock, image)
                  .ok());
  ASSERT_TRUE(files.ReplaceBlock(file, 1, shadow->disk, shadow->first).ok());
  ASSERT_FALSE(*files.IsContiguous(file));
}

TEST_F(TxnServiceTest, CommitMakesWritesVisible) {
  const FileId file = MakeFile(LockLevel::kPage, 2 * kBlockSize);
  auto t = txn_->Begin(ProcessId{1});
  const auto update = Pattern(100, 0x55);
  ASSERT_TRUE(txn_->TWrite(*t, file, 50, update).ok());
  ASSERT_TRUE(txn_->End(*t).ok());
  std::vector<std::uint8_t> out(100);
  ASSERT_TRUE(files_->Read(file, 50, out).ok());
  EXPECT_EQ(out, update);
  EXPECT_EQ(txn_->stats().commits, 2u);  // MakeFile + this one
}

// A page image was built from the whole mapped block, and a size hint maps
// its run without writing it: a deleted file's bytes past the committed end
// rode the commit and showed once a later write grew the file over them.
TEST_F(TxnServiceTest, BytesPastTheCommittedEndStayZeroThroughGrowth) {
  auto t0 = txn_->Begin(ProcessId{1});
  auto old = txn_->TCreate(*t0, LockLevel::kPage, 2 * kBlockSize);
  ASSERT_TRUE(old.ok());
  ASSERT_TRUE(txn_->TWrite(*t0, *old, 0,
                           std::vector<std::uint8_t>(2 * kBlockSize, 0xAB))
                  .ok());
  ASSERT_TRUE(txn_->End(*t0).ok());
  auto t1 = txn_->Begin(ProcessId{1});
  ASSERT_TRUE(txn_->TDelete(*t1, *old).ok());
  ASSERT_TRUE(txn_->End(*t1).ok());

  auto t2 = txn_->Begin(ProcessId{1});
  auto file = txn_->TCreate(*t2, LockLevel::kPage, 2 * kBlockSize);
  ASSERT_TRUE(file.ok());
  const std::vector<std::uint8_t> eight(8, 0x11);
  ASSERT_TRUE(txn_->TWrite(*t2, *file, 0, eight).ok());
  ASSERT_TRUE(txn_->End(*t2).ok());
  auto t3 = txn_->Begin(ProcessId{1});
  ASSERT_TRUE(txn_->TWrite(*t3, *file, kBlockSize + 4, eight).ok());
  ASSERT_TRUE(txn_->End(*t3).ok());

  std::vector<std::uint8_t> out(kBlockSize + 12);
  ASSERT_EQ(*files_->Read(*file, 0, out), out.size());
  std::vector<std::uint8_t> expected(out.size(), 0);
  std::fill(expected.begin(), expected.begin() + 8, 0x11);
  std::fill(expected.end() - 8, expected.end(), 0x11);
  EXPECT_EQ(out, expected);
}

TEST_F(TxnServiceTest, AbortDiscardsEverything) {
  const FileId file = MakeFile(LockLevel::kPage, kBlockSize, 7);
  const auto before = Pattern(kBlockSize, 7);
  auto t = txn_->Begin(ProcessId{1});
  ASSERT_TRUE(txn_->TWrite(*t, file, 0, Pattern(kBlockSize, 0x99)).ok());
  ASSERT_TRUE(txn_->Abort(*t).ok());
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(files_->Read(file, 0, out).ok());
  EXPECT_EQ(out, before);
  EXPECT_FALSE(txn_->IsActive(*t));
}

TEST_F(TxnServiceTest, ReadsSeeOwnTentativeWrites) {
  const FileId file = MakeFile(LockLevel::kPage, kBlockSize, 3);
  auto t = txn_->Begin(ProcessId{1});
  const auto update = Pattern(64, 0xEE);
  ASSERT_TRUE(txn_->TWrite(*t, file, 100, update).ok());
  std::vector<std::uint8_t> out(64);
  ASSERT_TRUE(
      txn_->TRead(*t, file, 100, out, ReadIntent::kForUpdate).ok());
  EXPECT_EQ(out, update);  // own write visible before commit
  // But the committed file still holds the old bytes.
  std::vector<std::uint8_t> committed(64);
  ASSERT_TRUE(files_->Read(file, 100, committed).ok());
  EXPECT_NE(committed, update);
  ASSERT_TRUE(txn_->End(*t).ok());
}

TEST_F(TxnServiceTest, TentativeGrowthVisibleToOwnerOnly) {
  const FileId file = MakeFile(LockLevel::kFile, kBlockSize);
  auto t = txn_->Begin(ProcessId{1});
  ASSERT_TRUE(
      txn_->TWrite(*t, file, 3 * kBlockSize, Pattern(100, 0xAB)).ok());
  auto attrs = txn_->TGetAttribute(*t, file);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->size, 3 * kBlockSize + 100);
  EXPECT_EQ(files_->GetAttributes(file)->size, kBlockSize);
  ASSERT_TRUE(txn_->End(*t).ok());
  EXPECT_EQ(files_->GetAttributes(file)->size, 3 * kBlockSize + 100);
}

TEST_F(TxnServiceTest, ContiguousFileCommitsViaWal) {
  const FileId file = MakeFile(LockLevel::kPage, 8 * kBlockSize);
  ASSERT_TRUE(*files_->IsContiguous(file));
  auto tech = txn_->TechniqueFor(file);
  ASSERT_TRUE(tech.ok());
  EXPECT_EQ(*tech, CommitTechnique::kWal);

  auto t = txn_->Begin(ProcessId{1});
  ASSERT_TRUE(txn_->TWrite(*t, file, 0, Pattern(kBlockSize, 9)).ok());
  ASSERT_TRUE(txn_->End(*t).ok());
  EXPECT_GE(txn_->stats().wal_commits, 1u);
  // WAL preserves contiguity (§6.7).
  EXPECT_TRUE(*files_->IsContiguous(file));
}

TEST_F(TxnServiceTest, FragmentedFileCommitsViaShadowPage) {
  const FileId file = MakeFile(LockLevel::kPage, 4 * kBlockSize);
  Fragment(*files_, *disks_, file);
  EXPECT_EQ(*txn_->TechniqueFor(file), CommitTechnique::kShadowPage);

  auto t = txn_->Begin(ProcessId{1});
  const auto update = Pattern(kBlockSize, 0x77);
  ASSERT_TRUE(txn_->TWrite(*t, file, 2 * kBlockSize, update).ok());
  ASSERT_TRUE(txn_->End(*t).ok());
  EXPECT_GE(txn_->stats().shadow_commits, 1u);
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(files_->Read(file, 2 * kBlockSize, out).ok());
  EXPECT_EQ(out, update);
}

// --- commit-time overlap ---------------------------------------------------------

// The staged shadow page is a fresh block: its two copies are written
// concurrently, so the commit is charged one mirror write less than its
// devices worked — and nothing else overlaps on a single disk.
TEST_F(TxnServiceTest, ShadowCommitSavesOneMirrorWrite) {
  const FileId file = MakeFile(LockLevel::kPage, 4 * kBlockSize);
  Fragment(*files_, *disks_, file);
  auto t = txn_->Begin(ProcessId{1});
  ASSERT_TRUE(txn_->TWrite(*t, file, 2 * kBlockSize,
                           Pattern(kBlockSize, 0x31)).ok());
  const EndCost cost = TimedEnd(*txn_, *t, *disks_, clock_);
  EXPECT_EQ(txn_->stats().shadow_commits, 1u);
  // The overlap hid the cheaper copy of one block write, less the two lane
  // dispatches: at least settle + rotation + transfer of one block.
  const sim::DiskGeometry g = DiskConfig().geometry;
  const SimTime min_block_write = g.seek_base + g.rotational_latency +
                                  kFragmentsPerBlock * g.transfer_per_fragment;
  const SimTime saved = cost.device - cost.elapsed;
  EXPECT_GE(saved, min_block_write - 2 * sim::kLaneDispatchCost);
  EXPECT_LT(saved, 2 * min_block_write);
}

TEST_F(TxnServiceTest, FilesOnTwoDisksApplyInOverlappingLanes) {
  Rebuild(TxnServiceConfig{}, /*disk_count=*/2);
  const FileId a = MakeFile(LockLevel::kRecord, 1000, 1);
  const FileId b = MakeFile(LockLevel::kRecord, 1000, 2);
  ASSERT_NE(file::FileDisk(a), file::FileDisk(b));
  const std::uint64_t conflicts = sim::LaneConflicts();

  auto t = txn_->Begin(ProcessId{1});
  ASSERT_TRUE(txn_->TWrite(*t, a, 10, Pattern(8, 0x41)).ok());
  ASSERT_TRUE(txn_->TWrite(*t, b, 20, Pattern(8, 0x42)).ok());
  const EndCost cost = TimedEnd(*txn_, *t, *disks_, clock_);
  // The two applies overlap: elapsed is well under the devices' total.
  EXPECT_LT(cost.elapsed + 4 * kSimMillisecond, cost.device);
  EXPECT_EQ(sim::LaneConflicts(), conflicts);

  std::vector<std::uint8_t> out(8);
  ASSERT_TRUE(files_->Read(a, 10, out).ok());
  EXPECT_EQ(out, Pattern(8, 0x41));
  ASSERT_TRUE(files_->Read(b, 20, out).ok());
  EXPECT_EQ(out, Pattern(8, 0x42));
}

TEST_F(TxnServiceTest, TwoFilesOnOneDiskApplySerially) {
  const FileId a = MakeFile(LockLevel::kRecord, 1000, 1);
  const FileId b = MakeFile(LockLevel::kRecord, 1000, 2);
  ASSERT_EQ(file::FileDisk(a), file::FileDisk(b));
  auto t = txn_->Begin(ProcessId{1});
  ASSERT_TRUE(txn_->TWrite(*t, a, 10, Pattern(8, 0x51)).ok());
  ASSERT_TRUE(txn_->TWrite(*t, b, 20, Pattern(8, 0x52)).ok());
  const EndCost cost = TimedEnd(*txn_, *t, *disks_, clock_);
  // One disk, one lane: elapsed is the sum of every reference.
  EXPECT_EQ(cost.elapsed, cost.device);
  std::vector<std::uint8_t> out(8);
  ASSERT_TRUE(files_->Read(b, 20, out).ok());
  EXPECT_EQ(out, Pattern(8, 0x52));
}

TEST_F(TxnServiceTest, RecordModeBuffersByteRanges) {
  const FileId file = MakeFile(LockLevel::kRecord, 1000, 2);
  auto t = txn_->Begin(ProcessId{1});
  ASSERT_TRUE(txn_->TWrite(*t, file, 10, Pattern(5, 0xA1)).ok());
  ASSERT_TRUE(txn_->TWrite(*t, file, 500, Pattern(7, 0xB2)).ok());
  // Overlapping re-write: later write wins.
  ASSERT_TRUE(txn_->TWrite(*t, file, 12, Pattern(3, 0xC3)).ok());
  std::vector<std::uint8_t> out(8);
  ASSERT_TRUE(txn_->TRead(*t, file, 10, out).ok());
  const auto a = Pattern(5, 0xA1);
  const auto c = Pattern(3, 0xC3);
  EXPECT_EQ(out[0], a[0]);
  EXPECT_EQ(out[2], c[0]);  // overlaid
  ASSERT_TRUE(txn_->End(*t).ok());
  EXPECT_GE(txn_->stats().ranges_logged, 3u);
  ASSERT_TRUE(files_->Read(file, 12, out).ok());
  EXPECT_EQ(out[0], c[0]);
}

// A commit stores the index table only for hard changes (size, runs): the
// access counts its reads and writes bump stay in memory. The log lives on
// stable storage only, so main-disk writes are the commit's data and table
// writes.
TEST_F(TxnServiceTest, CommitStoresTheIndexTableOnlyForHardChanges) {
  disk::DiskServer* d0 = *disks_->Get(DiskId{0});
  struct Cost {
    std::uint64_t fit_stores;
    std::uint64_t main_writes;
  };
  auto commit = [&](FileId file, std::uint64_t offset, std::size_t len) {
    files_->ResetStats();
    const auto main_before = d0->main_stats().write_references;
    auto t = txn_->Begin(ProcessId{1});
    std::vector<std::uint8_t> out(len);
    EXPECT_TRUE(txn_->TRead(*t, file, offset, out,
                            ReadIntent::kForUpdate).ok());
    EXPECT_TRUE(txn_->TWrite(*t, file, offset, Pattern(len, 0x3C)).ok());
    EXPECT_TRUE(txn_->End(*t).ok());
    return Cost{files_->stats().fit_stores,
                d0->main_stats().write_references - main_before};
  };

  // Record-locked range inside the file: one in-place data write, no table.
  const FileId account = MakeFile(LockLevel::kRecord, 1000, 2);
  const Cost in_place = commit(account, 100, 16);
  EXPECT_EQ(in_place.fit_stores, 0u);
  EXPECT_EQ(in_place.main_writes, 1u);
  std::vector<std::uint8_t> out(16);
  ASSERT_TRUE(files_->Read(account, 100, out).ok());
  EXPECT_EQ(out, Pattern(16, 0x3C));

  // A range that grows the file changes its size: one table store.
  EXPECT_EQ(commit(account, 3 * kBlockSize, 16).fit_stores, 1u);
  EXPECT_EQ(files_->GetAttributes(account)->size, 3 * kBlockSize + 16);

  // A shadow-page commit remaps a block: one table store.
  TxnServiceConfig cfg;
  cfg.technique = TxnServiceConfig::TechniqueOverride::kShadowAlways;
  Rebuild(cfg);
  d0 = *disks_->Get(DiskId{0});
  const FileId paged = MakeFile(LockLevel::kPage, 4 * kBlockSize);
  EXPECT_EQ(commit(paged, kBlockSize, kBlockSize).fit_stores, 1u);
  EXPECT_GE(txn_->stats().shadow_commits, 1u);
}

TEST_F(TxnServiceTest, TwoPhaseRuleRefusesLocksAfterCommitStart) {
  const FileId file = MakeFile(LockLevel::kPage, kBlockSize);
  auto t = txn_->Begin(ProcessId{1});
  ASSERT_TRUE(txn_->TWrite(*t, file, 0, Pattern(10)).ok());
  ASSERT_TRUE(txn_->End(*t).ok());
  // The transaction is gone; further operations are refused.
  EXPECT_EQ(txn_->TWrite(*t, file, 0, Pattern(10)).error().code,
            ErrorCode::kTxnNotActive);
}

TEST_F(TxnServiceTest, ConflictingWritersSerialize) {
  const FileId file = MakeFile(LockLevel::kFile, kBlockSize);
  auto t1 = txn_->Begin(ProcessId{1});
  auto t2 = txn_->Begin(ProcessId{2});
  ASSERT_TRUE(txn_->TWrite(*t1, file, 0, Pattern(10, 1)).ok());
  // t2 cannot write while t1 holds the IW file lock; with short timeouts
  // the lock manager resolves it by breaking someone.
  TxnServiceConfig cfg;
  (void)cfg;
  // Use TryLock-like behaviour through a short-LT service in the deadlock
  // test below; here just commit t1 first, then t2 proceeds.
  ASSERT_TRUE(txn_->End(*t1).ok());
  ASSERT_TRUE(txn_->TWrite(*t2, file, 0, Pattern(10, 2)).ok());
  ASSERT_TRUE(txn_->End(*t2).ok());
  std::vector<std::uint8_t> out(10);
  ASSERT_TRUE(files_->Read(file, 0, out).ok());
  EXPECT_EQ(out, Pattern(10, 2));  // t2 committed last
}

TEST_F(TxnServiceTest, TimeoutBreaksStalledHolderAndAbortsItAtEnd) {
  TxnServiceConfig cfg;
  cfg.lock_timeout.lt = std::chrono::milliseconds(20);
  cfg.lock_timeout.n = 2;
  Rebuild(cfg);
  const FileId file = MakeFile(LockLevel::kFile, kBlockSize);

  auto holder = txn_->Begin(ProcessId{1});
  ASSERT_TRUE(txn_->TWrite(*holder, file, 0, Pattern(10, 1)).ok());
  auto contender = txn_->Begin(ProcessId{2});
  // Blocks ~LT, then breaks the stalled holder.
  ASSERT_TRUE(txn_->TWrite(*contender, file, 0, Pattern(10, 2)).ok());
  ASSERT_TRUE(txn_->End(*contender).ok());
  // The holder discovers its fate at tend: aborted.
  EXPECT_EQ(txn_->End(*holder).code(), ErrorCode::kTxnAborted);
  EXPECT_GE(txn_->stats().aborts_broken, 1u);
  std::vector<std::uint8_t> out(10);
  ASSERT_TRUE(files_->Read(file, 0, out).ok());
  EXPECT_EQ(out, Pattern(10, 2));  // only the contender's write landed
}

TEST_F(TxnServiceTest, CreateIsUndoneByAbort) {
  auto t = txn_->Begin(ProcessId{1});
  auto file = txn_->TCreate(*t, LockLevel::kPage, kBlockSize);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(txn_->Abort(*t).ok());
  EXPECT_FALSE(files_->GetAttributes(*file).ok());
}

TEST_F(TxnServiceTest, DeleteAppliesOnlyAtCommit) {
  const FileId file = MakeFile(LockLevel::kPage, kBlockSize);
  auto t = txn_->Begin(ProcessId{1});
  ASSERT_TRUE(txn_->TDelete(*t, file).ok());
  EXPECT_TRUE(files_->GetAttributes(file).ok());  // still there
  ASSERT_TRUE(txn_->End(*t).ok());
  EXPECT_FALSE(files_->GetAttributes(file).ok());
}

TEST_F(TxnServiceTest, ReadOnlyTxnCommitsWithoutLogging) {
  const FileId file = MakeFile(LockLevel::kPage, kBlockSize);
  const auto logged_before = txn_->log().stats().appends;
  auto t = txn_->Begin(ProcessId{1});
  std::vector<std::uint8_t> out(100);
  ASSERT_TRUE(txn_->TRead(*t, file, 0, out).ok());
  ASSERT_TRUE(txn_->End(*t).ok());
  EXPECT_EQ(txn_->log().stats().appends, logged_before);
}

TEST_F(TxnServiceTest, WalOverrideForcesWalOnFragmentedFile) {
  TxnServiceConfig cfg;
  cfg.technique = TxnServiceConfig::TechniqueOverride::kWalAlways;
  Rebuild(cfg);
  const FileId file = MakeFile(LockLevel::kPage, 4 * kBlockSize);
  EXPECT_EQ(*txn_->TechniqueFor(file), CommitTechnique::kWal);
}

TEST_F(TxnServiceTest, ShadowOverrideDegradesContiguity) {
  // Create the file contiguously under the default (WAL-choosing) service,
  // then restart the transaction service in shadow-always mode.
  const FileId file = MakeFile(LockLevel::kPage, 8 * kBlockSize);
  TxnServiceConfig cfg;
  cfg.technique = TxnServiceConfig::TechniqueOverride::kShadowAlways;
  Restart(cfg);
  ASSERT_TRUE(*files_->IsContiguous(file));
  auto t = txn_->Begin(ProcessId{1});
  ASSERT_TRUE(
      txn_->TWrite(*t, file, 3 * kBlockSize, Pattern(kBlockSize, 5)).ok());
  ASSERT_TRUE(txn_->End(*t).ok());
  // "this technique destroys the contiguity of data blocks" (§6.7).
  EXPECT_FALSE(*files_->IsContiguous(file));
  EXPECT_LT(*files_->ContiguityIndex(file), 1.0);
}

// --- crash recovery -------------------------------------------------------------

TEST_F(TxnServiceTest, UncommittedTxnVanishesAtRecovery) {
  const FileId file = MakeFile(LockLevel::kPage, kBlockSize, 4);
  const auto before = Pattern(kBlockSize, 4);
  auto t = txn_->Begin(ProcessId{1});
  ASSERT_TRUE(txn_->TWrite(*t, file, 0, Pattern(kBlockSize, 0xDD)).ok());
  // CRASH before tend: tentative data was only in memory (+ begin record).
  disks_->CrashAll();
  files_->Crash();
  ASSERT_TRUE(disks_->RecoverAll().ok());
  Restart();
  ASSERT_TRUE(txn_->Recover().ok());
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(files_->Read(file, 0, out).ok());
  EXPECT_EQ(out, before);
}

TEST_F(TxnServiceTest, CommittedButUnappliedTxnIsRedone) {
  const FileId file = MakeFile(LockLevel::kPage, 2 * kBlockSize, 4);
  const auto update = Pattern(kBlockSize, 0xEF);

  // Drive a commit whose APPLY phase dies: run the commit normally, then
  // rewind the applied state by crashing before the file-service flush...
  // Instead, simulate precisely: write the intention log records by hand
  // through a transaction, crash at the commit point, and let recovery redo.
  auto t = txn_->Begin(ProcessId{1});
  ASSERT_TRUE(txn_->TWrite(*t, file, 0, update).ok());
  // Build the log exactly as End() would, up to and including the commit
  // record, but never apply.
  ASSERT_TRUE(txn_->log()
                  .Append(IntentionRecord{IntentionKind::kBegin, *t, {}, 0, 0,
                                          {}, 0, TxnStatus::kTentative, {}})
                  .ok());
  IntentionRecord redo;
  redo.kind = IntentionKind::kRedoPage;
  redo.txn = *t;
  redo.file = file;
  redo.block_index = 0;
  redo.offset = 2 * kBlockSize;  // final size
  redo.data = update;
  redo.data.resize(kBlockSize, 0);
  // Keep the rest of the original first page beyond the update intact, as
  // the real commit path logs full page images.
  {
    std::vector<std::uint8_t> page(kBlockSize);
    ASSERT_TRUE(files_->ReadBlock(file, 0, page).ok());
    std::copy(update.begin(), update.end(), page.begin());
    redo.data = page;
  }
  ASSERT_TRUE(txn_->log().Append(redo).ok());
  ASSERT_TRUE(txn_->log()
                  .Append(IntentionRecord{IntentionKind::kStatus, *t, {}, 0,
                                          0, {}, 0, TxnStatus::kCommit, {}})
                  .ok());

  // CRASH: the apply never happened.
  disks_->CrashAll();
  files_->Crash();
  ASSERT_TRUE(disks_->RecoverAll().ok());
  Restart();
  ASSERT_TRUE(txn_->Recover().ok());
  EXPECT_GE(txn_->stats().recovered_redone, 1u);

  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(files_->Read(file, 0, out).ok());
  EXPECT_EQ(out, update);  // the committed write was redone
}

TEST_F(TxnServiceTest, RecoveryIsIdempotent) {
  const FileId file = MakeFile(LockLevel::kPage, kBlockSize, 4);
  auto t = txn_->Begin(ProcessId{1});
  ASSERT_TRUE(txn_->TWrite(*t, file, 0, Pattern(kBlockSize, 0xBC)).ok());
  ASSERT_TRUE(txn_->End(*t).ok());
  // Recover twice on a healthy system: no effect either time.
  ASSERT_TRUE(txn_->Recover().ok());
  ASSERT_TRUE(txn_->Recover().ok());
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(files_->Read(file, 0, out).ok());
  EXPECT_EQ(out, Pattern(kBlockSize, 0xBC));
}

TEST_F(TxnServiceTest, TornIntentionLogIsNeverPartiallyReplayed) {
  // Power dies part-way through End()'s append to the intentions list: the
  // log tail is torn. Whatever recovery makes of it, the answer must be
  // all-or-nothing — the full redo, or the untouched old image. Sweep the
  // crash point across the first several stable-store writes of End().
  for (std::int64_t crash_after = 0; crash_after < 6; ++crash_after) {
    Rebuild(TxnServiceConfig{});
    const FileId file = MakeFile(LockLevel::kPage, kBlockSize, 0xA1);
    const auto old_bytes = Pattern(kBlockSize, 0xA1);
    const auto new_bytes = Pattern(kBlockSize, 0xB2);

    auto t = txn_->Begin(ProcessId{1});
    ASSERT_TRUE(txn_->TWrite(*t, file, 0, new_bytes).ok());

    auto d0 = disks_->Get(DiskId{0});
    ASSERT_TRUE(d0.ok());
    // The intentions list lives on the stable store; tear it there.
    sim::DiskFaultPlan tear;
    tear.crash_after_writes = crash_after;
    (*d0)->stable_device().SetFaultPlan(tear);
    const Status end = txn_->End(*t);  // dies at some log append (or not)

    disks_->CrashAll();
    files_->Crash();
    ASSERT_TRUE(disks_->RecoverAll().ok());
    Restart();
    ASSERT_TRUE(txn_->Recover().ok());

    std::vector<std::uint8_t> out(kBlockSize);
    ASSERT_TRUE(files_->Read(file, 0, out).ok());
    const bool all_old = out == old_bytes;
    const bool all_new = out == new_bytes;
    EXPECT_TRUE(all_old || all_new)
        << "partial replay with crash_after_writes=" << crash_after;
    if (end.ok()) {
      // A successful End() is a durability promise: only the new image will do.
      EXPECT_TRUE(all_new) << "crash_after_writes=" << crash_after;
    }
  }
}

// The staged shadow page is written main and mirror at once, so a crash
// can tear either copy. Before the commit force that is harmless: the
// transaction is discarded and its block is free again after recovery.
TEST_F(TxnServiceTest, TornShadowStagingIsDiscardedAndItsBlockFreed) {
  for (const bool tear_mirror : {false, true}) {
    Rebuild(TxnServiceConfig{});
    const FileId file = MakeFile(LockLevel::kPage, 4 * kBlockSize, 0x61);
    Fragment(*files_, *disks_, file);
    const auto old_bytes = Pattern(kBlockSize, 0x61);
    std::vector<std::uint8_t> page2(kBlockSize);
    ASSERT_TRUE(files_->ReadBlock(file, 2, page2).ok());
    // Persist the bitmap so recovery starts from exactly this allocation.
    ASSERT_TRUE(files_->FlushAll().ok());
    disk::DiskServer* d0 = *disks_->Get(DiskId{0});
    const std::uint64_t free_before = d0->FreeFragmentCount();

    auto t = txn_->Begin(ProcessId{1});
    ASSERT_TRUE(txn_->TWrite(*t, file, 2 * kBlockSize,
                             Pattern(kBlockSize, 0x62)).ok());
    // The shadow copy is the first write End() issues to either device.
    sim::DiskFaultPlan tear;
    tear.crash_after_writes = 0;
    if (tear_mirror) {
      d0->stable_device().SetFaultPlan(tear);
    } else {
      d0->main_device().SetFaultPlan(tear);
    }
    EXPECT_FALSE(txn_->End(*t).ok()) << "tear_mirror=" << tear_mirror;
    EXPECT_EQ(txn_->stats().commits, 1u);  // MakeFile only

    disks_->CrashAll();
    files_->Crash();
    ASSERT_TRUE(disks_->RecoverAll().ok());
    Restart();
    ASSERT_TRUE(txn_->Recover().ok());
    std::vector<std::uint8_t> out(kBlockSize);
    ASSERT_TRUE(files_->ReadBlock(file, 2, out).ok());
    EXPECT_EQ(out, page2) << "tear_mirror=" << tear_mirror;
    EXPECT_EQ(d0->FreeFragmentCount(), free_before)
        << "tear_mirror=" << tear_mirror;
  }
}

// A tear after the commit force hits the apply (the index-table store of
// the remap): recovery redoes the remap to the staged page, whose two
// copies were both complete before the force.
TEST_F(TxnServiceTest, TearAfterTheCommitForceIsRedoneToTheNewPage) {
  for (const bool tear_mirror : {false, true}) {
    Rebuild(TxnServiceConfig{});
    const FileId file = MakeFile(LockLevel::kPage, 4 * kBlockSize, 0x71);
    Fragment(*files_, *disks_, file);
    disk::DiskServer* d0 = *disks_->Get(DiskId{0});
    const auto new_bytes = Pattern(kBlockSize, 0x72);

    auto t = txn_->Begin(ProcessId{1});
    ASSERT_TRUE(txn_->TWrite(*t, file, 2 * kBlockSize, new_bytes).ok());
    // Main device: the shadow copy, then the table store. Mirror device:
    // the shadow copy, the log force, then the table store.
    sim::DiskFaultPlan tear;
    tear.crash_after_writes = tear_mirror ? 2 : 1;
    if (tear_mirror) {
      d0->stable_device().SetFaultPlan(tear);
    } else {
      d0->main_device().SetFaultPlan(tear);
    }
    EXPECT_FALSE(txn_->End(*t).ok()) << "tear_mirror=" << tear_mirror;
    EXPECT_EQ(txn_->stats().commits, 2u)  // the force went through
        << "tear_mirror=" << tear_mirror;

    disks_->CrashAll();
    files_->Crash();
    ASSERT_TRUE(disks_->RecoverAll().ok());
    Restart();
    ASSERT_TRUE(txn_->Recover().ok());
    EXPECT_EQ(txn_->stats().recovered_redone, 1u);
    std::vector<std::uint8_t> out(kBlockSize);
    ASSERT_TRUE(files_->ReadBlock(file, 2, out).ok());
    EXPECT_EQ(out, new_bytes) << "tear_mirror=" << tear_mirror;
    auto loc = files_->LocateBlock(file, 2);
    ASSERT_TRUE(loc.ok());
    EXPECT_TRUE(d0->IsFragmentAllocated(loc->first_fragment));
  }
}

TEST_F(TxnServiceTest, LogTruncatesAtQuiescence) {
  const FileId file = MakeFile(LockLevel::kPage, kBlockSize);
  auto t = txn_->Begin(ProcessId{1});
  ASSERT_TRUE(txn_->TWrite(*t, file, 0, Pattern(64)).ok());
  ASSERT_TRUE(txn_->End(*t).ok());
  // Last transaction finished: the log was checkpointed empty.
  EXPECT_EQ(txn_->log().BytesUsed(), 0u);
}

}  // namespace
}  // namespace rhodos::txn
