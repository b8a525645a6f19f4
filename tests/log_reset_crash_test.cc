// Crash tests for the window in which the intention log still holds
// commits. Committed records stay in the log until a checkpoint, and a
// recovery would redo them. A basic put to a file the log names, or one
// that changes a bitmap while the log holds a commit that changed one,
// must therefore run a checkpoint first (file::LogClaims), which lands
// what the log covers and resets it, or a crash would let the redo
// overwrite the newer state. Each test commits, writes something else,
// crashes, recovers, and checks that the later state survived.
#include <gtest/gtest.h>

#include "file/file_service.h"
#include "file/fsck.h"
#include "txn/transaction_service.h"

namespace rhodos::txn {
namespace {

using file::FileService;
using file::FileServiceConfig;
using file::LockLevel;

constexpr std::uint64_t kFileBlocks = 4;
constexpr std::uint8_t kCommitted = 0xB2;  // written by the transaction
constexpr std::uint8_t kLater = 0xC3;      // written after it, not by one

disk::DiskServerConfig DiskConfig() {
  disk::DiskServerConfig c;
  c.geometry.total_fragments = 8192;
  c.geometry.fragments_per_track = 32;
  c.cache_capacity_tracks = 16;
  return c;
}

std::vector<std::uint8_t> Block(std::uint8_t fill) {
  return std::vector<std::uint8_t>(kBlockSize, fill);
}

class LogResetCrashTest : public ::testing::Test {
 protected:
  // Two disks, so files land on both and a write to the disk without the
  // log is covered too.
  void SetUp() override {
    disks_ = std::make_unique<disk::DiskRegistry>();
    for (int d = 0; d < 2; ++d) disks_->AddDisk(DiskConfig(), &clock_);
    Restart();
  }

  void Restart(TxnServiceConfig config = {}) {
    txn_.reset();
    files_.reset();
    files_ = std::make_unique<FileService>(disks_.get(), &clock_,
                                           FileServiceConfig{});
    txn_ = std::make_unique<TransactionService>(
        disks_.get(), [this](FileId) -> FileService& { return *files_; },
        config);
  }

  // A contiguous page-locked file of kFileBlocks zero blocks: commits to
  // it use write-ahead logging, whose redo writes page images in place.
  FileId MakeFile() {
    auto file = files_->Create(file::ServiceType::kTransaction,
                               kFileBlocks * kBlockSize);
    EXPECT_TRUE(file.ok());
    EXPECT_TRUE(files_->SetLockLevel(*file, LockLevel::kPage).ok());
    EXPECT_TRUE(files_->Resize(*file, kFileBlocks * kBlockSize).ok());
    EXPECT_TRUE(files_->Flush(*file).ok());
    return *file;
  }

  // Commits kCommitted to `block` of each file in one transaction, which
  // stays in the log.
  void Commit(std::initializer_list<FileId> files, std::uint64_t block = 0) {
    auto t = txn_->Begin(ProcessId{1});
    ASSERT_TRUE(t.ok());
    for (FileId file : files) {
      ASSERT_TRUE(
          txn_->TWrite(*t, file, block * kBlockSize, Block(kCommitted)).ok());
    }
    ASSERT_TRUE(txn_->End(*t).ok());
    ASSERT_GT(txn_->log().BytesUsed(), 0u);
  }

  // Power cut, then the facility's restart order: disks, snapshot redo,
  // then transaction recovery.
  void CrashAndRecover() {
    disks_->CrashAll();
    files_->Crash();
    ASSERT_TRUE(disks_->RecoverAll().ok());
    Restart();
    ASSERT_TRUE(files_->RecoverSnapshots().ok());
    ASSERT_TRUE(txn_->Recover().ok());
  }

  std::vector<std::uint8_t> ReadBlock(FileId file, std::uint64_t block) {
    std::vector<std::uint8_t> out(kBlockSize);
    EXPECT_TRUE(files_->ReadBlock(file, block, out).ok());
    return out;
  }

  SimClock clock_;
  std::unique_ptr<disk::DiskRegistry> disks_;
  std::unique_ptr<FileService> files_;
  std::unique_ptr<TransactionService> txn_;
};

TEST_F(LogResetCrashTest, WithNoLaterWriteRecoveryRedoesTheCommit) {
  const FileId file = MakeFile();
  Commit({file});
  // Nothing reset the log: the commit is still in it.
  EXPECT_EQ(txn_->log().stats().reset_writes, 0u);
  CrashAndRecover();
  EXPECT_EQ(txn_->stats().recovered_redone, 1u);
  EXPECT_EQ(ReadBlock(file, 0), Block(kCommitted));
}

TEST_F(LogResetCrashTest, BasicWriteOnEitherDiskSurvives) {
  FileId on_disk[2]{};
  while (on_disk[0].value == 0 || on_disk[1].value == 0) {
    const FileId file = MakeFile();
    on_disk[file::FileDisk(file).value] = file;
  }
  Commit({on_disk[0], on_disk[1]});
  for (int d : {1, 0}) {
    ASSERT_TRUE(files_->Write(on_disk[d], 0, Block(kLater)).ok());
    ASSERT_TRUE(files_->Flush(on_disk[d]).ok());
    // The first write checkpointed; the second found nothing to do.
    EXPECT_FALSE(txn_->log().reset_pending());
    EXPECT_EQ(txn_->log().stats().reset_writes, 1u);
  }
  CrashAndRecover();
  EXPECT_EQ(txn_->stats().recovered_redone, 0u);
  for (const FileId file : on_disk) {
    EXPECT_EQ(ReadBlock(file, 0), Block(kLater));
  }
}

TEST_F(LogResetCrashTest, ShrinkingResizeSurvives) {
  const FileId file = MakeFile();
  Commit({file}, /*block=*/2);
  ASSERT_TRUE(files_->Resize(file, kBlockSize).ok());
  ASSERT_TRUE(files_->Flush(file).ok());
  CrashAndRecover();
  auto attrs = files_->GetAttributes(file);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->size, kBlockSize);
}

TEST_F(LogResetCrashTest, DeleteSurvives) {
  const FileId file = MakeFile();
  Commit({file});
  ASSERT_TRUE(files_->Delete(file).ok());
  CrashAndRecover();
  EXPECT_FALSE(files_->GetAttributes(file).ok());
}

TEST_F(LogResetCrashTest, CreateAtTheDeletedFileIdSurvives) {
  const FileId file = MakeFile();
  Commit({file});
  ASSERT_TRUE(files_->Delete(file).ok());
  // Placement rotates over the disks: create until it comes round.
  bool reused = false;
  for (int i = 0; i < 4 && !reused; ++i) {
    auto created = files_->Create(file::ServiceType::kBasic,
                                  kFileBlocks * kBlockSize);
    ASSERT_TRUE(created.ok());
    reused = *created == file;
  }
  ASSERT_TRUE(reused) << "the test needs the FileId reused";
  ASSERT_TRUE(files_->Write(file, 0, Block(kLater)).ok());
  ASSERT_TRUE(files_->Flush(file).ok());
  CrashAndRecover();
  EXPECT_EQ(ReadBlock(file, 0), Block(kLater));
}

TEST_F(LogResetCrashTest, SnapshotAndCopyOnWriteSurvive) {
  const FileId file = MakeFile();
  Commit({file});
  auto snapshot = files_->Snapshot(file);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(files_->Write(file, 0, Block(kLater)).ok());
  ASSERT_TRUE(files_->Flush(file).ok());
  CrashAndRecover();
  EXPECT_EQ(ReadBlock(file, 0), Block(kLater));
  EXPECT_EQ(ReadBlock(*snapshot, 0), Block(kCommitted));
}

TEST_F(LogResetCrashTest, FlushAllSurvives) {
  const FileId file = MakeFile();
  Commit({file});
  ASSERT_TRUE(files_->Write(file, 0, Block(kLater)).ok());
  ASSERT_TRUE(files_->FlushAll().ok());
  CrashAndRecover();
  EXPECT_EQ(ReadBlock(file, 0), Block(kLater));
}

// A log that cannot take the next commit is checkpointed before it, and
// the reset stays in memory: the commit's force lands at offset 0 under
// the new generation.
TEST_F(LogResetCrashTest, NextCommitForceCarriesTheReset) {
  TxnServiceConfig config;
  config.log_fragments = 8;  // 16 KiB: one page image and a little more
  Restart(config);
  const FileId file = MakeFile();
  Commit({file});
  const std::uint64_t forces = txn_->log().stats().forces;
  const std::uint64_t used = txn_->log().BytesUsed();
  Commit({file}, /*block=*/1);
  // One force per commit and no reset write.
  EXPECT_EQ(txn_->log().stats().forces, forces + 1);
  EXPECT_EQ(txn_->log().stats().reset_writes, 0u);
  EXPECT_LE(txn_->log().BytesUsed(), used + 256);
  CrashAndRecover();
  EXPECT_EQ(txn_->stats().recovered_redone, 1u);  // the second commit only
  EXPECT_EQ(ReadBlock(file, 0), Block(kCommitted));
  EXPECT_EQ(ReadBlock(file, 1), Block(kCommitted));
}

// A growth's block is allocated in memory; the bitmap that holds it must
// reach the disk no later than the table that maps it, whether a basic
// write's close stores that table or a commit's write-behind does.
TEST_F(LogResetCrashTest, GrownBlockStaysAllocatedAfterACrash) {
  for (const bool basic : {true, false}) {
    txn_.reset();
    files_.reset();
    SetUp();
    FileId file;
    if (basic) {
      auto created = files_->Create(file::ServiceType::kBasic,
                                    kFileBlocks * kBlockSize);
      ASSERT_TRUE(created.ok());
      file = *created;
      ASSERT_TRUE(files_->Resize(file, kFileBlocks * kBlockSize).ok());
      ASSERT_TRUE(files_->FlushAll().ok());
      const std::vector<std::uint8_t> tail(100, kLater);
      ASSERT_TRUE(files_->Write(file, kFileBlocks * kBlockSize, tail).ok());
      ASSERT_TRUE(files_->Close(file).ok());
    } else {
      file = MakeFile();
      ASSERT_TRUE(files_->FlushAll().ok());
      auto t = txn_->Begin(ProcessId{1});
      ASSERT_TRUE(t.ok());
      const std::vector<std::uint8_t> tail(100, kCommitted);
      ASSERT_TRUE(txn_->TWrite(*t, file, kFileBlocks * kBlockSize, tail).ok());
      ASSERT_TRUE(txn_->End(*t).ok());
      // The next commit's force carries the grown table.
      Commit({file});
    }
    CrashAndRecover();
    auto attrs = files_->GetAttributes(file);
    ASSERT_TRUE(attrs.ok());
    EXPECT_EQ(attrs->size, kFileBlocks * kBlockSize + 100) << basic;
    const TransactionService::LogRegion log = txn_->log_region();
    const file::ReservedRegion reserved[] = {
        {log.disk, log.first, log.fragments}};
    const FileId audited[] = {file};
    const file::AuditReport report =
        file::AuditFiles(*files_, audited, reserved);
    EXPECT_EQ(report.CountOf(file::AuditIssue::Kind::kUnallocatedClaim), 0u)
        << (basic ? "basic write" : "commit");
    EXPECT_TRUE(report.clean()) << (basic ? "basic write" : "commit");
  }
}

}  // namespace
}  // namespace rhodos::txn
