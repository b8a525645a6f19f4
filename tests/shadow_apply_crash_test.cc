// Power cuts through a commit whose apply writes each remapped index
// table's main copy and mirror at once.
//
// A committed shadow remap's table store is redone from its kShadowMap
// record, so its two copies go out as lanes of one section instead of main
// then mirror; a one-fragment copy tears whole, leaving each copy old or
// new. These tests cut power at every write of disk 1's main device, then
// at every write of its mirror device, through three commit shapes: two
// shadowed files on disk 1; a WAL file on disk 0 beside a shadowed file on
// disk 1; and the same two files growing, the WAL file by part of a page
// past its end and the shadowed file inside its last block. After
// recovery the commit is all or nothing, to the byte and in each file's
// size, both copies of every table parse and map the same blocks, and
// fsck is clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "file/file_service.h"
#include "file/fsck.h"
#include "sim/parallel.h"
#include "txn/transaction_service.h"

namespace rhodos::txn {
namespace {

using file::FileService;
using file::FileServiceConfig;

constexpr std::uint64_t kFileBlocks = 4;
constexpr std::uint64_t kFileBytes = kFileBlocks * kBlockSize;
constexpr std::uint8_t kNew = 0xC3;

disk::DiskServerConfig DiskConfig() {
  disk::DiskServerConfig c;
  c.geometry.total_fragments = 8192;
  c.geometry.fragments_per_track = 32;
  c.cache_capacity_tracks = 16;
  return c;
}

enum class Shape { kTwoShadows, kWalAndShadow, kGrowth };

// One file of a shape: its home disk, whether it is fragmented (so the
// paper's rule shadows it), its size before the commit, and the bytes of
// kNew the commit writes at `offset`.
struct FileCase {
  std::uint32_t disk;
  bool fragmented;
  std::uint64_t size;
  std::uint64_t offset;
  std::uint64_t len;
};

std::vector<FileCase> Cases(Shape shape) {
  switch (shape) {
    case Shape::kTwoShadows:
      return {{1, true, kFileBytes, 0, kBlockSize},
              {1, true, kFileBytes, 0, kBlockSize}};
    case Shape::kWalAndShadow:
      return {{0, false, kFileBytes, 0, kBlockSize},
              {1, true, kFileBytes, 0, kBlockSize}};
    case Shape::kGrowth:
      // The WAL file's new page is past its mapped end; the shadowed
      // file's write starts before its end and stays inside its last block,
      // reaching that block's last fragment so a torn shadow page shows.
      return {{0, false, kFileBytes, kFileBytes, 100},
              {1, true, kFileBytes - kBlockSize + 100,
               kFileBytes - kBlockSize + 50, kBlockSize - 192}};
  }
  return {};
}

std::string Describe(Shape shape, bool tear_mirror, int k) {
  const char* name = shape == Shape::kTwoShadows     ? "two shadows"
                     : shape == Shape::kWalAndShadow ? "WAL + shadow"
                                                     : "growth";
  return std::string(name) + ", tear disk 1's " +
         (tear_mirror ? "mirror" : "main") + " device after " +
         std::to_string(k) + " writes";
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

  // A page-locked file of `c.size` zero bytes over kFileBlocks blocks
  // homed on disk `c.disk`, with the bitmap persisted. A fragmented file's
  // first block is cut off from the rest, so the paper's rule shadows it.
  FileId MakeFile(const FileCase& c) {
    const std::uint64_t hint = c.fragmented ? 1 : kFileBlocks;
    for (;;) {
      auto file =
          files_->Create(file::ServiceType::kTransaction, hint * kBlockSize);
      EXPECT_TRUE(file.ok());
      if (file::FileDisk(*file).value != c.disk) continue;
      if (c.fragmented) {
        (void)Disk(c.disk).AllocateSpecific(
            file::FileFitFragment(*file) + 1 + kFragmentsPerBlock,
            kFragmentsPerBlock);
      }
      EXPECT_TRUE(files_->SetLockLevel(*file, file::LockLevel::kPage).ok());
      EXPECT_TRUE(files_->Resize(*file, c.size).ok());
      EXPECT_TRUE(files_->FlushAll().ok());
      EXPECT_EQ(*txn_->TechniqueFor(*file),
                c.fragmented ? CommitTechnique::kShadowPage
                             : CommitTechnique::kWal);
      return *file;
    }
  }

  // One transaction writing each case's bytes of kNew to its file.
  Status Commit(const std::vector<FileCase>& cases,
                const std::vector<FileId>& files) {
    auto t = txn_->Begin(ProcessId{1});
    EXPECT_TRUE(t.ok());
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const std::vector<std::uint8_t> data(cases[i].len, kNew);
      EXPECT_TRUE(txn_->TWrite(*t, files[i], cases[i].offset, data).ok());
    }
    return txn_->End(*t);
  }

  // The file holds exactly the case's bytes: zeros, with kNew over the
  // write if it committed, and no byte past the size it should have.
  void ExpectContent(FileId file, const FileCase& c, bool committed,
                     const std::string& where) {
    const std::uint64_t end = std::max(c.size, c.offset + c.len);
    const std::uint64_t size = committed ? end : c.size;
    auto attrs = files_->GetAttributes(file);
    ASSERT_TRUE(attrs.ok()) << where;
    EXPECT_EQ(attrs->size, size) << where;
    std::vector<std::uint8_t> expected(size, 0);
    if (committed) {
      std::fill_n(expected.begin() + static_cast<std::ptrdiff_t>(c.offset),
                  c.len, kNew);
    }
    std::vector<std::uint8_t> bytes(end + kBlockSize);
    auto n = files_->Read(file, 0, bytes);
    ASSERT_TRUE(n.ok()) << where;
    bytes.resize(*n);
    EXPECT_EQ(bytes, expected) << where;
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
        const std::vector<FileCase> cases = Cases(shape);
        std::vector<FileId> files;
        for (const FileCase& c : cases) files.push_back(MakeFile(c));
        sim::DiskModel& device = tear_mirror ? Disk(1).stable_device()
                                             : Disk(1).main_device();
        sim::DiskFaultPlan plan;
        plan.crash_after_writes = k;
        device.SetFaultPlan(plan);
        const Status ended = Commit(cases, files);
        const bool tore = device.crashed();
        device.SetFaultPlan({});
        EXPECT_EQ(ended.ok(), !tore) << where;

        CrashAndRestart();
        ASSERT_TRUE(txn_->Recover().ok()) << where;
        const bool committed =
            ended.ok() || txn_->stats().recovered_redone > 0;
        if (tore) ++(committed ? redone : discarded);
        for (std::size_t i = 0; i < files.size(); ++i) {
          ExpectContent(files[i], cases[i], committed, where);
          ExpectTableCopiesAgree(files[i], where);
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

// A redone growth keeps its exact size: the WAL page past the end grows
// the file only to the committed size, and the shadowed file takes the
// size its remap record carries.
TEST_F(ShadowApplyCrashTest, GrowingFilesKeepTheirExactSizeAtEveryWrite) {
  RunMatrix(Shape::kGrowth);
}

}  // namespace
}  // namespace rhodos::txn
