// Basic puts beside an intention log that still holds commits. A recovery
// redoes what the log holds, so a basic put checkpoints the log first only
// when the log claims it (file::LogClaims): a put to a file the log names,
// or a bitmap change while it holds a commit that remapped, deleted or
// grew a file. Every other put goes straight to its disk.
//
// The crash tests cut power at every write of each of the four devices
// across three sequences — a commit, a basic overwrite of another file and
// a second commit; a shadow commit and basic creates; a committed delete
// and the creates that reuse its FileId — then recover, check every
// file's bytes against what was acknowledged and run fsck. The other tests
// show a claim ending with a lazy reset, and a basic overwrite going
// through while the log's device is down and while another thread's
// commit waits for its force.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "file/file_service.h"
#include "file/fsck.h"
#include "sim/parallel.h"
#include "txn/transaction_service.h"

namespace rhodos::txn {
namespace {

using file::FileService;
using file::FileServiceConfig;
using file::ServiceType;

constexpr std::uint64_t kFileBlocks = 4;
constexpr std::uint8_t kFirst = 0x51;   // the first commit
constexpr std::uint8_t kBasic = 0x62;   // basic writes
constexpr std::uint8_t kSecond = 0x73;  // the second commit

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

// What a file may read after a crash: the bytes of the last operation
// acknowledged for it, or of a later one that failed (it may have landed).
void Note(std::set<std::uint8_t>& possible, bool acked, std::uint8_t fill) {
  if (acked) possible.clear();
  possible.insert(fill);
}

struct Cut {
  std::uint32_t disk;
  bool mirror;
};
constexpr Cut kCuts[] = {{0, false}, {0, true}, {1, false}, {1, true}};

class MixedPutTest : public ::testing::Test {
 protected:
  void SetUp() override {
    conflicts_ = sim::LaneConflicts();
    Rebuild();
  }
  void TearDown() override { EXPECT_EQ(sim::LaneConflicts(), conflicts_); }

  // Fresh disks, then fresh services.
  void Rebuild() {
    txn_.reset();
    files_.reset();
    disks_ = std::make_unique<disk::DiskRegistry>();
    for (int d = 0; d < 2; ++d) disks_->AddDisk(DiskConfig(), &clock_);
    Restart();
  }

  void Restart() {
    txn_.reset();
    files_.reset();
    files_ = std::make_unique<FileService>(disks_.get(), &clock_,
                                           FileServiceConfig{});
    txn_ = std::make_unique<TransactionService>(
        disks_.get(), [this](FileId) -> FileService& { return *files_; },
        config_);
  }

  disk::DiskServer& Disk(std::uint32_t d) { return **disks_->Get(DiskId{d}); }

  // A page-locked contiguous file of kFileBlocks zero blocks homed on disk
  // `d` (a commit to it is WAL unless config_ says otherwise), with the
  // bitmap persisted.
  FileId MakeFileOn(std::uint32_t d, ServiceType type) {
    for (;;) {
      auto file = files_->Create(type, kFileBlocks * kBlockSize);
      EXPECT_TRUE(file.ok());
      if (file::FileDisk(*file).value != d) continue;
      EXPECT_TRUE(files_->SetLockLevel(*file, file::LockLevel::kPage).ok());
      EXPECT_TRUE(files_->Resize(*file, kFileBlocks * kBlockSize).ok());
      EXPECT_TRUE(files_->FlushAll().ok());
      return *file;
    }
  }

  Status Commit(FileId file, std::initializer_list<std::uint64_t> pages,
                std::uint8_t fill) {
    auto t = txn_->Begin(ProcessId{1});
    EXPECT_TRUE(t.ok());
    for (std::uint64_t page : pages) {
      EXPECT_TRUE(txn_->TWrite(*t, file, page * kBlockSize, Block(fill)).ok());
    }
    return txn_->End(*t);
  }

  // A basic overwrite of block 0, acknowledged once it is flushed.
  bool BasicOverwrite(FileId file) {
    return files_->Write(file, 0, Block(kBasic)).ok() &&
           files_->Flush(file).ok();
  }

  // Power cut, then the facility's restart order: disks, snapshot redo,
  // transaction recovery.
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

  // Every byte of the block is one the file may hold, and with `whole`
  // (a commit's page, all or nothing) they are all one.
  void ExpectOneOf(FileId file, std::uint64_t block,
                   const std::set<std::uint8_t>& possible, bool whole,
                   const std::string& where) {
    const std::vector<std::uint8_t> bytes = ReadBlock(file, block);
    if (whole) {
      EXPECT_EQ(bytes, Block(bytes.front())) << where << ": block " << block;
    }
    for (const std::uint8_t byte : std::set(bytes.begin(), bytes.end())) {
      EXPECT_TRUE(possible.contains(byte))
          << where << ": block " << block << " holds "
          << static_cast<int>(byte);
    }
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

  // Runs `body` once for every write of each device: fresh disks, and the
  // device torn after k writes of the sequence, k = 0, 1, ... until the
  // sequence runs whole. `body` builds its files, calls Arm(), runs the
  // sequence (a checkpoint last lands what the log owes), then PowerCut()
  // and its checks.
  void ForEveryCut(const std::function<void(const std::string&)>& body) {
    for (const Cut cut : kCuts) {
      for (int k = 0;; ++k) {
        ASSERT_LT(k, 128) << "the sequence never ran out of writes";
        cut_ = cut;
        writes_ = k;
        Rebuild();
        body("tear disk " + std::to_string(cut.disk) +
             (cut.mirror ? "'s mirror" : "'s main") + " after " +
             std::to_string(k) + " writes");
        if (!tore_) {
          EXPECT_GT(k, 0) << "the sequence never wrote the device";
          break;
        }
      }
    }
  }
  sim::DiskModel& Device() {
    return cut_.mirror ? Disk(cut_.disk).stable_device()
                       : Disk(cut_.disk).main_device();
  }
  void Arm() {
    sim::DiskFaultPlan plan;
    plan.crash_after_writes = writes_;
    Device().SetFaultPlan(plan);
  }
  void PowerCut() {
    tore_ = Device().crashed();
    Device().SetFaultPlan({});
    CrashAndRecover();
  }

  SimClock clock_;
  TxnServiceConfig config_;
  std::unique_ptr<disk::DiskRegistry> disks_;
  std::unique_ptr<FileService> files_;
  std::unique_ptr<TransactionService> txn_;
  std::uint64_t conflicts_ = 0;
  Cut cut_{};
  int writes_ = 0;
  bool tore_ = false;
};

// --- power cuts --------------------------------------------------------------

// A WAL commit of F's first two pages, a basic overwrite of G, which the
// log does not name, and a second commit of F. G's write goes straight to
// its disk and no recovery redoes a commit over it; each commit is all or
// nothing.
TEST_F(MixedPutTest, BasicOverwriteBetweenTwoCommitsSurvivesEveryCut) {
  ForEveryCut([&](const std::string& where) {
    const FileId f = MakeFileOn(0, ServiceType::kTransaction);
    const FileId g = MakeFileOn(1, ServiceType::kBasic);
    Arm();
    std::set<std::uint8_t> f_possible{0};
    std::set<std::uint8_t> g_possible{0};
    Note(f_possible, Commit(f, {0, 1}, kFirst).ok(), kFirst);
    Note(g_possible, BasicOverwrite(g), kBasic);
    Note(f_possible, Commit(f, {0, 1}, kSecond).ok(), kSecond);
    (void)txn_->Checkpoint();
    PowerCut();
    ExpectOneOf(f, 0, f_possible, /*whole=*/true, where);
    EXPECT_EQ(ReadBlock(f, 1), ReadBlock(f, 0)) << where << ": a commit split";
    // A basic write that failed may have torn.
    ExpectOneOf(g, 0, g_possible, /*whole=*/false, where);
    ExpectFsckClean({f, g}, where);
  });
}

// A shadow commit of F; a commit of W, whose force lands F's table and so
// frees the block F's remap replaced; then basic creates, whose
// allocations may take that block. They checkpoint first, so no recovery
// frees a created file's block.
TEST_F(MixedPutTest, BasicCreatesAfterAShadowCommitSurviveEveryCut) {
  config_.technique = TxnServiceConfig::TechniqueOverride::kShadowAlways;
  ForEveryCut([&](const std::string& where) {
    const FileId f = MakeFileOn(1, ServiceType::kTransaction);
    const FileId w = MakeFileOn(0, ServiceType::kTransaction);
    Arm();
    std::set<std::uint8_t> f_possible{0};
    std::set<std::uint8_t> w_possible{0};
    Note(f_possible, Commit(f, {0}, kFirst).ok(), kFirst);
    Note(w_possible, Commit(w, {0}, kSecond).ok(), kSecond);
    std::vector<FileId> created;
    for (int i = 0; i < 4; ++i) {
      auto file = files_->Create(ServiceType::kBasic, 0);
      if (file.ok() && BasicOverwrite(*file)) created.push_back(*file);
    }
    (void)txn_->Checkpoint();
    PowerCut();
    ExpectOneOf(f, 0, f_possible, /*whole=*/true, where);
    ExpectOneOf(w, 0, w_possible, /*whole=*/true, where);
    std::vector<FileId> audited = {f, w};
    for (const FileId file : created) {
      EXPECT_EQ(ReadBlock(file, 0), Block(kBasic)) << where;
      audited.push_back(file);
    }
    ExpectFsckClean(audited, where);
  });
}

// A committed delete of F, then basic creates until one reuses F's
// FileId: the create checkpoints first, so no recovery redoes the delete
// over the new file.
TEST_F(MixedPutTest, ACreateAtACommittedDeletesFileIdSurvivesEveryCut) {
  ForEveryCut([&](const std::string& where) {
    const FileId f = MakeFileOn(0, ServiceType::kTransaction);
    Arm();
    auto t = txn_->Begin(ProcessId{1});
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(txn_->TDelete(*t, f).ok());
    const bool deleted = txn_->End(*t).ok();
    bool reused = false;
    bool written = false;
    for (int i = 0; i < 8 && !reused; ++i) {
      auto file = files_->Create(ServiceType::kBasic, kFileBlocks * kBlockSize);
      reused = file.ok() && *file == f;
      written = reused && BasicOverwrite(f);
    }
    if (deleted && !Device().crashed()) {
      ASSERT_TRUE(reused) << where << ": the test needs the FileId reused";
    }
    PowerCut();
    if (reused) {
      EXPECT_TRUE(files_->GetAttributes(f).ok()) << where << ": recovery "
                                                 << "deleted the new file";
    }
    if (written) EXPECT_EQ(ReadBlock(f, 0), Block(kBasic)) << where;
    ExpectFsckClean(reused ? std::vector<FileId>{f} : std::vector<FileId>{},
                    where);
  });
}

// --- availability and concurrency --------------------------------------------

// A force torn on disk 0's stable device leaves the log awaiting a
// checkpoint that cannot run while the device is down. A basic overwrite
// of a file on disk 1 the log does not name goes through all the same and
// survives the next power cut; a write to the file the log names waits.
TEST_F(MixedPutTest, ABasicOverwriteGoesThroughWhileTheLogDeviceIsDown) {
  const FileId f = MakeFileOn(0, ServiceType::kTransaction);
  const FileId g = MakeFileOn(1, ServiceType::kBasic);
  sim::DiskFaultPlan tear;
  tear.crash_after_writes = 0;
  Disk(0).stable_device().SetFaultPlan(tear);
  EXPECT_FALSE(Commit(f, {0}, kFirst).ok());
  ASSERT_TRUE(Disk(0).stable_device().crashed());

  ASSERT_TRUE(BasicOverwrite(g));
  auto refused = files_->Write(f, 0, Block(kBasic));
  ASSERT_FALSE(refused.ok()) << "the log names f";
  EXPECT_EQ(refused.error().code, ErrorCode::kUnavailable);
  EXPECT_FALSE(txn_->Checkpoint().ok());

  Disk(0).stable_device().SetFaultPlan({});
  CrashAndRecover();
  EXPECT_EQ(ReadBlock(g, 0), Block(kBasic));
  EXPECT_EQ(ReadBlock(f, 0), Block(0));
  ExpectFsckClean({f, g}, "after recovery");
}

// A claim ends when the reset that drops its records lands, even a lazy
// one: a commit to W that finds the log full checkpoints it lazily, and
// W's force lands the reset. A basic write to F, whose records that reset
// dropped, then goes straight to its disk; one to W still checkpoints.
TEST_F(MixedPutTest, AClaimEndsWithTheLazyResetThatDropsItsRecords) {
  config_.log_fragments = 8;  // 16 KiB: one page image and a little more
  Restart();
  const FileId f = MakeFileOn(0, ServiceType::kTransaction);
  const FileId w = MakeFileOn(1, ServiceType::kTransaction);
  ASSERT_TRUE(Commit(f, {0}, kFirst).ok());
  ASSERT_TRUE(Commit(w, {0}, kSecond).ok());
  ASSERT_FALSE(txn_->log().reset_pending()) << "W's force landed the reset";
  const std::uint64_t resets = txn_->log().stats().reset_writes;
  const std::uint64_t log_bytes = txn_->log().BytesUsed();
  ASSERT_TRUE(files_->Write(f, 0, Block(kBasic)).ok());
  EXPECT_EQ(txn_->log().stats().reset_writes, resets);
  EXPECT_EQ(txn_->log().BytesUsed(), log_bytes);
  ASSERT_TRUE(files_->Write(w, 0, Block(kBasic)).ok());
  EXPECT_EQ(txn_->log().stats().reset_writes, resets + 1);
  EXPECT_EQ(txn_->log().BytesUsed(), 0u);
  CrashAndRecover();
  EXPECT_EQ(ReadBlock(f, 0), Block(kBasic));
  EXPECT_EQ(ReadBlock(w, 0), Block(kBasic));
}

// While another thread's shadow commit waits in AwaitDurable, held there
// by the group-commit leader window, a basic overwrite of a file the log
// does not name goes through. A create, which the commit's remap claims,
// is refused rather than run beside it, and so is the transaction
// service's own create, which checkpoints under its mutex first.
TEST_F(MixedPutTest, ABasicOverwriteGoesThroughWhileACommitAwaitsItsForce) {
  config_.group_commit.leader_window = std::chrono::seconds(2);
  config_.technique = TxnServiceConfig::TechniqueOverride::kShadowAlways;
  Restart();
  const FileId f = MakeFileOn(0, ServiceType::kTransaction);
  const FileId g = MakeFileOn(1, ServiceType::kBasic);
  auto t = txn_->Begin(ProcessId{1});
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(txn_->TWrite(*t, f, 0, Block(kFirst)).ok());
  Status committed;
  std::thread committer([&] { committed = txn_->End(*t); });
  // End has staged once the pipeline holds bytes and End lets go of the
  // service's mutex, which IsActive takes.
  while (txn_->pipeline().PendingBytes() == 0) std::this_thread::yield();
  (void)txn_->IsActive(*t);
  const bool written = files_->Write(g, 0, Block(kBasic)).ok() &&
                       files_->Sync(g).ok();
  const bool create_refused = !files_->Create(ServiceType::kBasic, 0).ok();
  auto other = txn_->Begin(ProcessId{2});
  const bool tcreate_refused =
      other.ok() && !txn_->TCreate(*other, file::LockLevel::kPage).ok();
  const bool waiting = txn_->pipeline().stats().seals_window == 0;
  committer.join();
  EXPECT_TRUE(written);
  EXPECT_TRUE(create_refused);
  EXPECT_TRUE(tcreate_refused);
  EXPECT_TRUE(waiting) << "the leader window ran out before the puts";
  EXPECT_TRUE(committed.ok());
  EXPECT_EQ(ReadBlock(g, 0), Block(kBasic));
  EXPECT_EQ(ReadBlock(f, 0), Block(kFirst));
  EXPECT_TRUE(files_->Create(ServiceType::kBasic, 0).ok());
}

}  // namespace
}  // namespace rhodos::txn
