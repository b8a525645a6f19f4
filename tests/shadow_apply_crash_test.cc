// Power cuts through a commit whose apply writes each remapped index
// table's main copy and mirror at once.
//
// A committed shadow remap's table store is redone from its kShadowMap
// record, so its two copies go out as lanes of one section instead of main
// then mirror; a one-fragment copy tears whole, leaving each copy old or
// new. These tests cut power at every write of disk 1's main device, then
// at every write of its mirror device, through two commit shapes: two
// shadowed files on disk 1, and a WAL file on disk 0 beside a shadowed
// file on disk 1. After recovery the commit is all or nothing, both copies
// of every table parse and map the same blocks, and fsck is clean.
#include <gtest/gtest.h>

#include <string>

#include "file/file_service.h"
#include "file/fsck.h"
#include "sim/parallel.h"
#include "txn/transaction_service.h"

namespace rhodos::txn {
namespace {

using file::FileService;
using file::FileServiceConfig;

constexpr std::uint64_t kFileBlocks = 4;
constexpr std::uint8_t kNew = 0xC3;

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

enum class Shape { kTwoShadows, kWalAndShadow };

std::string Describe(Shape shape, bool tear_mirror, int k) {
  return std::string(shape == Shape::kTwoShadows ? "two shadows"
                                                 : "WAL + shadow") +
         ", tear disk 1's " + (tear_mirror ? "mirror" : "main") +
         " device after " + std::to_string(k) + " writes";
}

class ShadowApplyCrashTest : public ::testing::Test {
 protected:
  void SetUp() override { conflicts_ = sim::LaneConflicts(); }
  void TearDown() override { EXPECT_EQ(sim::LaneConflicts(), conflicts_); }

  void Rebuild() {
    txn_.reset();
    files_.reset();
    disks_ = std::make_unique<disk::DiskRegistry>();
    for (int d = 0; d < 2; ++d) disks_->AddDisk(DiskConfig(), &clock_);
    Restart();
  }

  // The paper's rule picks the technique (§6.7): WAL for a contiguous
  // file, shadow pages for a fragmented one.
  void Restart() {
    txn_.reset();
    files_.reset();
    files_ = std::make_unique<FileService>(disks_.get(), &clock_,
                                           FileServiceConfig{});
    txn_ = std::make_unique<TransactionService>(
        disks_.get(), [this](FileId) -> FileService& { return *files_; },
        TxnServiceConfig{});
  }

  disk::DiskServer& Disk(std::uint32_t d) { return **disks_->Get(DiskId{d}); }

  // A page-locked file of kFileBlocks zero blocks homed on disk `d`, with
  // the bitmap persisted. A fragmented file's first block is cut off from
  // the rest, so the paper's rule shadows it.
  FileId MakeFileOn(std::uint32_t d, bool fragmented) {
    const std::uint64_t hint = fragmented ? 1 : kFileBlocks;
    for (;;) {
      auto file =
          files_->Create(file::ServiceType::kTransaction, hint * kBlockSize);
      EXPECT_TRUE(file.ok());
      if (file::FileDisk(*file).value != d) continue;
      if (fragmented) {
        (void)Disk(d).AllocateSpecific(
            file::FileFitFragment(*file) + 1 + kFragmentsPerBlock,
            kFragmentsPerBlock);
      }
      EXPECT_TRUE(files_->SetLockLevel(*file, file::LockLevel::kPage).ok());
      EXPECT_TRUE(files_->Resize(*file, kFileBlocks * kBlockSize).ok());
      EXPECT_TRUE(files_->FlushAll().ok());
      EXPECT_EQ(*txn_->TechniqueFor(*file),
                fragmented ? CommitTechnique::kShadowPage
                           : CommitTechnique::kWal);
      return *file;
    }
  }

  std::vector<FileId> MakeFiles(Shape shape) {
    if (shape == Shape::kTwoShadows) {
      const FileId a = MakeFileOn(1, true);
      return {a, MakeFileOn(1, true)};
    }
    const FileId wal = MakeFileOn(0, false);
    return {wal, MakeFileOn(1, true)};
  }

  // One transaction writing kNew over page 0 of every file.
  Status Commit(const std::vector<FileId>& files) {
    auto t = txn_->Begin(ProcessId{1});
    EXPECT_TRUE(t.ok());
    for (const FileId f : files) {
      EXPECT_TRUE(txn_->TWrite(*t, f, 0, Block(kNew)).ok());
    }
    return txn_->End(*t);
  }

  void CrashAndRestart() {
    disks_->CrashAll();
    files_->Crash();
    ASSERT_TRUE(disks_->RecoverAll().ok());
    Restart();
    ASSERT_TRUE(files_->RecoverSnapshots().ok());
  }

  // Both copies of `file`'s index table parse and map the same runs.
  void ExpectTableCopiesAgree(FileId file, const std::string& where) {
    disk::DiskServer& home = Disk(file::FileDisk(file).value);
    std::vector<std::uint8_t> main(kFragmentSize);
    std::vector<std::uint8_t> mirror(kFragmentSize);
    ASSERT_TRUE(home.GetBlock(file::FileFitFragment(file), 1, main).ok());
    ASSERT_TRUE(home.GetBlock(file::FileFitFragment(file), 1, mirror,
                              disk::ReadSource::kStable)
                    .ok());
    auto main_table = file::ParseFitFragment(main);
    auto mirror_table = file::ParseFitFragment(mirror);
    ASSERT_TRUE(main_table.ok()) << where;
    ASSERT_TRUE(mirror_table.ok()) << where;
    EXPECT_EQ(main_table->table.runs(), mirror_table->table.runs()) << where;
  }

  void RunMatrix(Shape shape) {
    for (const bool tear_mirror : {false, true}) {
      // Tears that recovery discarded (a shadow page did not land) and
      // tears it redone (the apply did not finish): the sweep must reach
      // both the flush and the apply.
      int discarded = 0;
      int redone = 0;
      for (int k = 0;; ++k) {
        ASSERT_LT(k, 64) << "the commit never ran out of writes";
        const std::string where = Describe(shape, tear_mirror, k);
        Rebuild();
        const std::vector<FileId> files = MakeFiles(shape);
        sim::DiskModel& device = tear_mirror ? Disk(1).stable_device()
                                             : Disk(1).main_device();
        sim::DiskFaultPlan plan;
        plan.crash_after_writes = k;
        device.SetFaultPlan(plan);
        const Status ended = Commit(files);
        const bool tore = device.crashed();
        device.SetFaultPlan({});
        EXPECT_EQ(ended.ok(), !tore) << where;

        CrashAndRestart();
        ASSERT_TRUE(txn_->Recover().ok()) << where;
        const bool committed =
            ended.ok() || txn_->stats().recovered_redone > 0;
        if (tore) ++(committed ? redone : discarded);
        for (const FileId f : files) {
          std::vector<std::uint8_t> page(kBlockSize);
          ASSERT_TRUE(files_->ReadBlock(f, 0, page).ok()) << where;
          EXPECT_EQ(page, Block(committed ? kNew : 0)) << where;
          ExpectTableCopiesAgree(f, where);
        }
        const TransactionService::LogRegion log = txn_->log_region();
        const file::ReservedRegion reserved[] = {
            {log.disk, log.first, log.fragments}};
        const file::AuditReport report =
            file::AuditFiles(*files_, files, reserved);
        EXPECT_TRUE(report.clean())
            << where << ": "
            << (report.issues.empty() ? "" : report.issues.front().detail);
        if (!tore) break;
      }
      EXPECT_GT(discarded, 0) << Describe(shape, tear_mirror, 0);
      EXPECT_GT(redone, 0) << Describe(shape, tear_mirror, 0);
    }
  }

  SimClock clock_;
  std::unique_ptr<disk::DiskRegistry> disks_;
  std::unique_ptr<FileService> files_;
  std::unique_ptr<TransactionService> txn_;
  std::uint64_t conflicts_ = 0;
};

TEST_F(ShadowApplyCrashTest, TwoShadowedTablesSurviveATearAtEveryWrite) {
  RunMatrix(Shape::kTwoShadows);
}

TEST_F(ShadowApplyCrashTest, WalBesideAShadowedTableSurvivesATearAtEveryWrite) {
  RunMatrix(Shape::kWalAndShadow);
}

}  // namespace
}  // namespace rhodos::txn
