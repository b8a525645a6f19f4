// Power cuts through a no-force commit and the force that carries its
// write-behind.
//
// A commit is acknowledged at its force; the writes its redo leaves — WAL
// pages in place, each remapped index table — ride the next commit's
// force. A committed shadow remap's table store is redone from its
// kShadowMap record, so its two copies go out at once; a one-fragment copy
// tears whole, leaving each copy old or new. These tests cut power at
// every write of each device, through two consecutive commits (the second
// one's force carries the first one's write-behind) in four shapes: two
// shadowed files on disk 1; a WAL file on disk 0 beside a shadowed file on
// disk 1; the same two files growing, the WAL file by part of a page past
// its end and the shadowed file inside its last block; a shadowed file
// whose remap needs a new indirect block; and one whose remap splits a run
// its existing indirect block holds, so that block is rewritten in place
// before the fragment whose run count it changes. After recovery each commit
// is all or nothing, to the byte and in each file's size, both copies of
// every table parse and map the same blocks, and fsck is clean.
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

enum class Shape {
  kTwoShadows,
  kWalAndShadow,
  kGrowth,
  kIndirect,
  kIndirectRewrite
};

// Blocks of the indirect shapes' files, and remaps that leave kIndirect's
// one run short of filling its table fragment: one more split needs an
// indirect block. Two more remaps put kIndirectRewrite's last runs in one.
constexpr std::uint64_t kManyBlocks = 70;
constexpr std::uint64_t kSetupRemaps = (file::kDirectRuns - 1) / 2;

// One file of a shape: its home disk, whether it is fragmented (so the
// paper's rule shadows it), its size before the commit, and the bytes of
// kNew the commit writes at `offset`. A file with `remaps` is kManyBlocks
// long with that many of its odd blocks, from the first, remapped.
struct FileCase {
  std::uint32_t disk;
  bool fragmented;
  std::uint64_t size;
  std::uint64_t offset;
  std::uint64_t len;
  std::uint64_t remaps = 0;
};

// The second commit of every matrix: a page of a contiguous file on the
// log's disk.
constexpr FileCase kSecond{0, false, kFileBytes, kBlockSize, kBlockSize};

// The devices a matrix tears, one per sweep.
struct Tear {
  std::uint32_t disk;
  bool mirror;
};
constexpr Tear kTears[] = {{1, false}, {1, true}, {0, false}, {0, true}};

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
    case Shape::kIndirect:
      // A block in the middle of the file's last run: the split adds two.
      return {{1, true, kManyBlocks * kBlockSize, (kManyBlocks - 4) * kBlockSize,
               kBlockSize, kSetupRemaps}};
    case Shape::kIndirectRewrite:
      // The last run, blocks 66-69, is the indirect block's: splitting it
      // adds two runs there and changes nothing in the fragment but its
      // run count.
      return {{1, true, kManyBlocks * kBlockSize, (kManyBlocks - 2) * kBlockSize,
               kBlockSize, kSetupRemaps + 2}};
  }
  return {};
}

std::string Describe(Shape shape, Tear tear, int k) {
  const char* name = shape == Shape::kTwoShadows     ? "two shadows"
                     : shape == Shape::kWalAndShadow ? "WAL + shadow"
                     : shape == Shape::kGrowth       ? "growth"
                     : shape == Shape::kIndirect     ? "indirect"
                                                     : "indirect rewrite";
  return std::string(name) + ", tear disk " + std::to_string(tear.disk) +
         "'s " + (tear.mirror ? "mirror" : "main") + " device after " +
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
    const std::uint64_t hint =
        c.remaps > 0 ? kManyBlocks : c.fragmented ? 1 : kFileBlocks;
    for (;;) {
      auto file =
          files_->Create(file::ServiceType::kTransaction, hint * kBlockSize);
      EXPECT_TRUE(file.ok());
      if (file::FileDisk(*file).value != c.disk) continue;
      if (c.remaps > 0) {
        for (std::uint64_t i = 0; i < c.remaps; ++i) {
          auto fresh = files_->AllocateShadowBlocks(*file, 1);
          EXPECT_TRUE(fresh.ok());
          EXPECT_TRUE(files_
                          ->ReplaceBlocks(*file, {{2 * i + 1,
                                                   fresh->front().disk,
                                                   fresh->front().first}})
                          .ok());
        }
        EXPECT_EQ(files_->FileRuns(*file)->size(), 2 * c.remaps + 1);
      } else if (c.fragmented) {
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

  // Whether the file holds exactly the case's bytes: zeros, with kNew over
  // the write if it committed, and no byte past the size it should have.
  bool Holds(FileId file, const FileCase& c, bool committed) {
    const std::uint64_t end = std::max(c.size, c.offset + c.len);
    const std::uint64_t size = committed ? end : c.size;
    auto attrs = files_->GetAttributes(file);
    if (!attrs.ok() || attrs->size != size) return false;
    std::vector<std::uint8_t> expected(size, 0);
    if (committed) {
      std::fill_n(expected.begin() + static_cast<std::ptrdiff_t>(c.offset),
                  c.len, kNew);
    }
    std::vector<std::uint8_t> bytes(end + kBlockSize);
    auto n = files_->Read(file, 0, bytes);
    if (!n.ok()) return false;
    bytes.resize(*n);
    return bytes == expected;
  }

  // Each commit left all of its files committed or none: returns whether
  // it committed.
  bool ExpectAllOrNothing(const std::vector<FileCase>& cases,
                          const std::vector<FileId>& files,
                          const std::string& where) {
    const bool committed = Holds(files.front(), cases.front(), true);
    for (std::size_t i = 0; i < files.size(); ++i) {
      EXPECT_TRUE(Holds(files[i], cases[i], committed))
          << where << ": file " << i << (committed ? " not" : "")
          << " committed";
      ExpectTableCopiesAgree(files[i], where);
    }
    return committed;
  }

  void ExpectFsckClean(const std::vector<FileId>& files,
                       const std::string& where) {
    const TransactionService::LogRegion log = txn_->log_region();
    const file::ReservedRegion reserved[] = {
        {log.disk, log.first, log.fragments}};
    const file::AuditReport report =
        file::AuditFiles(*files_, files, reserved);
    EXPECT_TRUE(report.clean())
        << where << ": "
        << (report.issues.empty() ? "" : report.issues.front().detail);
  }

  sim::DiskModel& Device(Tear tear) {
    return tear.mirror ? Disk(tear.disk).stable_device()
                       : Disk(tear.disk).main_device();
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

  // Commits the shape, then a second commit whose force carries the
  // first one's write-behind, with one device torn after k writes, for
  // every k until the two commits no longer reach the tear.
  void RunMatrix(Shape shape) {
    for (const Tear tear : kTears) {
      int torn_first = 0;   // the tear hit the first commit's own section
      int torn_second = 0;  // ... or the one carrying its write-behind
      for (int k = 0;; ++k) {
        ASSERT_LT(k, 64) << "the commits never ran out of writes";
        const std::string where = Describe(shape, tear, k);
        Rebuild();
        const std::vector<FileCase> cases = Cases(shape);
        std::vector<FileId> files;
        for (const FileCase& c : cases) files.push_back(MakeFile(c));
        const FileId second = MakeFile(kSecond);
        sim::DiskModel& device = Device(tear);
        sim::DiskFaultPlan plan;
        plan.crash_after_writes = k;
        device.SetFaultPlan(plan);
        const Status first_ended = Commit(cases, files);
        const bool tore_first = device.crashed();
        const Status second_ended = Commit({kSecond}, {second});
        const bool tore = device.crashed();
        device.SetFaultPlan({});
        if (!tore) {
          EXPECT_TRUE(first_ended.ok()) << where;
          EXPECT_TRUE(second_ended.ok()) << where;
        }

        CrashAndRestart();
        ASSERT_TRUE(txn_->Recover().ok()) << where;
        const bool first = ExpectAllOrNothing(cases, files, where);
        EXPECT_TRUE(first || !first_ended.ok()) << where;
        const bool second_committed =
            ExpectAllOrNothing({kSecond}, {second}, where);
        EXPECT_TRUE(second_committed || !second_ended.ok()) << where;
        files.push_back(second);
        ExpectFsckClean(files, where);
        if (!tore) break;
        ++(tore_first ? torn_first : torn_second);
      }
      // Disk 1 holds the shadow pages and the tables the second force
      // carries: its sweeps reach both sections.
      if (tear.disk == 1) {
        EXPECT_GT(torn_first, 0) << Describe(shape, tear, 0);
        EXPECT_GT(torn_second, 0) << Describe(shape, tear, 0);
      }
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

// The write-behind allocates the indirect block the split needs and frees
// nothing until the table lands: no block is claimed twice or left free
// under a claim.
TEST_F(ShadowApplyCrashTest, RemapNeedingAnIndirectBlockSurvivesEveryWrite) {
  RunMatrix(Shape::kIndirect);
}

// The existing indirect block is rewritten in place before the fragment:
// a cut between the two leaves the old fragment, whose run count is two
// short, beside the new runs. The table still loads, and recovery redoes
// the commit over it.
TEST_F(ShadowApplyCrashTest, RemapInsideAnIndirectBlockSurvivesEveryWrite) {
  RunMatrix(Shape::kIndirectRewrite);
}

// Acknowledged at the force, then power is cut before anything else is
// written: recovery redoes every shape from the log alone, and a remap's
// replaced block is free again.
TEST_F(ShadowApplyCrashTest, CrashAfterTheForceWithNothingWrittenIsRedone) {
  for (const Shape shape : {Shape::kTwoShadows, Shape::kWalAndShadow,
                            Shape::kGrowth, Shape::kIndirect,
                            Shape::kIndirectRewrite}) {
    const std::string where = Describe(shape, kTears[0], 0);
    Rebuild();
    const std::vector<FileCase> cases = Cases(shape);
    std::vector<FileId> files;
    for (const FileCase& c : cases) files.push_back(MakeFile(c));
    const std::uint64_t free_before = Disk(1).FreeFragmentCount();
    ASSERT_TRUE(Commit(cases, files).ok()) << where;
    CrashAndRestart();
    ASSERT_TRUE(txn_->Recover().ok()) << where;
    EXPECT_EQ(txn_->stats().recovered_redone, 1u) << where;
    EXPECT_TRUE(ExpectAllOrNothing(cases, files, where)) << where;
    ExpectFsckClean(files, where);
    if (shape == Shape::kTwoShadows) {
      EXPECT_EQ(Disk(1).FreeFragmentCount(), free_before) << where;
    }
  }
}

// A checkpoint cut at every write of every device: the commit it lands
// was acknowledged, so recovery always finds it committed.
TEST_F(ShadowApplyCrashTest, CrashMidCheckpointAtEveryWrite) {
  for (const Tear tear : kTears) {
    for (int k = 0;; ++k) {
      ASSERT_LT(k, 64) << "the checkpoint never ran out of writes";
      const std::string where = Describe(Shape::kWalAndShadow, tear, k);
      Rebuild();
      const std::vector<FileCase> cases = Cases(Shape::kWalAndShadow);
      std::vector<FileId> files;
      for (const FileCase& c : cases) files.push_back(MakeFile(c));
      ASSERT_TRUE(Commit(cases, files).ok()) << where;
      sim::DiskModel& device = Device(tear);
      sim::DiskFaultPlan plan;
      plan.crash_after_writes = k;
      device.SetFaultPlan(plan);
      const Status checkpointed = txn_->Checkpoint();
      const bool tore = device.crashed();
      device.SetFaultPlan({});
      EXPECT_EQ(checkpointed.ok(), !tore) << where;
      CrashAndRestart();
      ASSERT_TRUE(txn_->Recover().ok()) << where;
      EXPECT_TRUE(ExpectAllOrNothing(cases, files, where)) << where;
      ExpectFsckClean(files, where);
      if (!tore) break;
    }
  }
}

// A basic write after a no-force commit on the same file lands after what
// the commit owed, and recovery does not redo the commit over it.
TEST_F(ShadowApplyCrashTest, BasicWriteAfterANoForceCommitSurvivesACrash) {
  const std::vector<FileCase> cases = Cases(Shape::kWalAndShadow);
  Rebuild();
  std::vector<FileId> files;
  for (const FileCase& c : cases) files.push_back(MakeFile(c));
  ASSERT_TRUE(Commit(cases, files).ok());
  constexpr std::uint8_t kLater = 0x5E;
  const std::vector<std::uint8_t> later(100, kLater);
  for (const FileId file : files) {
    ASSERT_TRUE(files_->Write(file, 100, later).ok());
    ASSERT_TRUE(files_->Close(file).ok());
  }
  CrashAndRestart();
  ASSERT_TRUE(txn_->Recover().ok());
  EXPECT_EQ(txn_->stats().recovered_redone, 0u);
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::vector<std::uint8_t> expected(kBlockSize, kNew);
    std::fill_n(expected.begin() + 100, later.size(), kLater);
    std::vector<std::uint8_t> bytes(kBlockSize);
    ASSERT_TRUE(files_->Read(files[i], 0, bytes).ok());
    EXPECT_EQ(bytes, expected) << "file " << i;
  }
  ExpectFsckClean(files, "basic write after a commit");
}

}  // namespace
}  // namespace rhodos::txn
