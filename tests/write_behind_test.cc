// Which force carries an owed write: the write-behind fills idle devices.
//
// A commit is acknowledged at its force and leaves its redo's writes owed:
// WAL pages in place and remapped index tables. A group of data blocks (one
// file's) rides a later force only if no lane it joins grows past the
// flush's depth, the most references the force and the fresh runs put on
// one lane; a table rides the next force; a later commit to a file replaces
// the group it still owes; a checkpoint lands everything. The unit tests
// count writes per device and time the commit; the crash test cuts power
// at every write of all four devices while a WAL block waits two forces
// and is replaced; the facility test crashes and recovers every server
// with blocks waiting.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/facility.h"
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
constexpr std::uint8_t kNew = 0xA7;
constexpr std::uint8_t kLater = 0xB8;

// With no seek cost, every reference costs rotation plus transfer wherever
// the head rests, so equal work costs equal time.
disk::DiskServerConfig DiskConfig() {
  disk::DiskServerConfig c;
  c.geometry.total_fragments = 8192;
  c.geometry.fragments_per_track = 32;
  c.geometry.seek_base = 0;
  c.geometry.seek_per_track = 0;
  c.cache_capacity_tracks = 16;
  return c;
}

std::vector<std::uint8_t> Block(std::uint8_t fill) {
  return std::vector<std::uint8_t>(kBlockSize, fill);
}

class WriteBehindTest : public ::testing::Test {
 protected:
  void SetUp() override {
    conflicts_ = sim::LaneConflicts();
    Rebuild();
  }
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

  void CrashAndRestart() {
    disks_->CrashAll();
    files_->Crash();
    ASSERT_TRUE(disks_->RecoverAll().ok());
    Restart();
    ASSERT_TRUE(files_->RecoverSnapshots().ok());
  }

  disk::DiskServer& Disk(std::uint32_t d) { return **disks_->Get(DiskId{d}); }
  std::uint64_t MainWrites(std::uint32_t d) {
    return Disk(d).main_stats().write_references;
  }
  std::uint64_t StableWrites(std::uint32_t d) {
    return Disk(d).stable_stats().write_references;
  }

  // A page-locked file of kFileBlocks zero blocks homed on disk `d`, with
  // the bitmap persisted. A fragmented file's first block is cut off from
  // the rest, so the paper's rule shadows it; a contiguous one is WAL.
  FileId MakeFile(std::uint32_t d, bool fragmented = false) {
    for (;;) {
      auto file = files_->Create(file::ServiceType::kTransaction,
                                 (fragmented ? 1 : kFileBlocks) * kBlockSize);
      EXPECT_TRUE(file.ok());
      if (file::FileDisk(*file).value != d) continue;
      if (fragmented) {
        (void)Disk(d).AllocateSpecific(
            file::FileFitFragment(*file) + 1 + kFragmentsPerBlock,
            kFragmentsPerBlock);
      }
      EXPECT_TRUE(files_->SetLockLevel(*file, file::LockLevel::kPage).ok());
      EXPECT_TRUE(files_->Resize(*file, kFileBytes).ok());
      EXPECT_TRUE(files_->FlushAll().ok());
      EXPECT_EQ(*txn_->TechniqueFor(*file),
                fragmented ? CommitTechnique::kShadowPage
                           : CommitTechnique::kWal);
      return *file;
    }
  }

  // One transaction writing a page of `fill` over page 0 of each file;
  // returns End's status and leaves the sim time End took in end_time_.
  Status Commit(const std::vector<FileId>& files, std::uint8_t fill = kNew) {
    auto t = txn_->Begin(ProcessId{1});
    EXPECT_TRUE(t.ok());
    for (const FileId file : files) {
      EXPECT_TRUE(txn_->TWrite(*t, file, 0, Block(fill)).ok());
    }
    const SimTime start = clock_.Now();
    const Status ended = txn_->End(*t);
    end_time_ = clock_.Now() - start;
    return ended;
  }

  // What page 0 of `file` holds on its disk's main device.
  std::vector<std::uint8_t> OnPlatter(FileId file) {
    auto loc = files_->LocateBlock(file, 0);
    EXPECT_TRUE(loc.ok());
    std::vector<std::uint8_t> out(kBlockSize);
    EXPECT_TRUE(Disk(loc->disk.value)
                    .GetBlock(loc->first_fragment, kFragmentsPerBlock, out)
                    .ok());
    return out;
  }

  std::vector<std::uint8_t> Read(FileId file) {
    std::vector<std::uint8_t> out(kBlockSize);
    EXPECT_TRUE(files_->ReadBlock(file, 0, out).ok());
    return out;
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

  SimClock clock_;
  std::unique_ptr<disk::DiskRegistry> disks_;
  std::unique_ptr<FileService> files_;
  std::unique_ptr<TransactionService> txn_;
  SimTime end_time_ = 0;
  std::uint64_t conflicts_ = 0;
};

// --- which force carries what -------------------------------------------------

// The force occupies disk 0's stable device only: the block an earlier
// commit owes on disk 0's main device rides beside it, and its reference
// hides under the force's. The commit costs a bare force plus the dispatch
// of the second lane.
TEST_F(WriteBehindTest, ForceCarriesOneWaitingBlockOnItsIdleMainDevice) {
  const FileId a = MakeFile(0);
  const FileId b = MakeFile(0);
  ASSERT_TRUE(Commit({a}).ok());
  const SimTime bare = end_time_;
  const std::uint64_t main_before = MainWrites(0);
  ASSERT_TRUE(Commit({b}).ok());
  EXPECT_EQ(MainWrites(0) - main_before, 1u);
  EXPECT_EQ(OnPlatter(a), Block(kNew));
  EXPECT_EQ(end_time_, bare + 2 * sim::kLaneDispatchCost);
}

// Two blocks owed on one main device (one commit's, so in either order):
// one rides the next force, the other waits for the one after.
TEST_F(WriteBehindTest, TwoBlocksOnOneMainDeviceTakeTurns) {
  const FileId a = MakeFile(0);
  const FileId b = MakeFile(0);
  const FileId c = MakeFile(0);
  const FileId d = MakeFile(0);
  ASSERT_TRUE(Commit({a, b}).ok());
  std::uint64_t main_before = MainWrites(0);
  ASSERT_TRUE(Commit({c}).ok());
  EXPECT_EQ(MainWrites(0) - main_before, 1u);
  const bool a_rode = OnPlatter(a) == Block(kNew);
  const FileId waiting = a_rode ? b : a;
  EXPECT_EQ(OnPlatter(waiting), Block(0));
  main_before = MainWrites(0);
  ASSERT_TRUE(Commit({d}).ok());
  EXPECT_EQ(MainWrites(0) - main_before, 1u);
  EXPECT_EQ(OnPlatter(waiting), Block(kNew));
  EXPECT_EQ(OnPlatter(c), Block(0)) << "c waits";
  main_before = MainWrites(0);
  ASSERT_TRUE(txn_->Checkpoint().ok());
  EXPECT_EQ(MainWrites(0) - main_before, 2u) << "c and d";
  for (const FileId f : {a, b, c, d}) EXPECT_EQ(OnPlatter(f), Block(kNew));
}

// A later commit to a file whose block still waits replaces the group in
// place: the page is written once, with the later image.
TEST_F(WriteBehindTest, AReplacedWaitingBlockIsWrittenOnce) {
  const FileId x1 = MakeFile(0);
  const FileId x2 = MakeFile(0);
  const FileId b = MakeFile(0);
  const std::uint64_t main_before = MainWrites(0);
  ASSERT_TRUE(Commit({x1, x2}).ok());
  ASSERT_TRUE(Commit({b}).ok());
  ASSERT_TRUE(Commit({b}, kLater).ok());
  EXPECT_EQ(MainWrites(0) - main_before, 2u) << "x1 and x2 rode, b waited";
  EXPECT_EQ(OnPlatter(b), Block(0));
  ASSERT_TRUE(txn_->Checkpoint().ok());
  EXPECT_EQ(MainWrites(0) - main_before, 3u) << "b was written once";
  EXPECT_EQ(OnPlatter(b), Block(kLater));
  CrashAndRestart();
  ASSERT_TRUE(txn_->Recover().ok());
  EXPECT_EQ(Read(b), Block(kLater));
}

// A group longer than the flush's depth would never fit: it rides when
// its lane carries nothing else, rather than wait for a checkpoint.
TEST_F(WriteBehindTest, AGroupLongerThanTheDepthRidesAnIdleLane) {
  const FileId a = MakeFile(0);
  const FileId b = MakeFile(0);
  auto t = txn_->Begin(ProcessId{1});
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(txn_->TWrite(*t, a, 0, Block(kNew)).ok());
  ASSERT_TRUE(txn_->TWrite(*t, a, kBlockSize, Block(kNew)).ok());
  ASSERT_TRUE(txn_->End(*t).ok());
  const std::uint64_t main_before = MainWrites(0);
  ASSERT_TRUE(Commit({b}).ok());
  EXPECT_EQ(MainWrites(0) - main_before, 2u);
  EXPECT_EQ(OnPlatter(a), Block(kNew));
}

// Two remapped tables on disk 1 make its lane twice as long as the force,
// and both still ride the next force.
TEST_F(WriteBehindTest, TablesStillRideTheNextForce) {
  const FileId s1 = MakeFile(1, /*fragmented=*/true);
  const FileId s2 = MakeFile(1, /*fragmented=*/true);
  const FileId a = MakeFile(0);
  ASSERT_TRUE(Commit({s1, s2}).ok());
  const std::uint64_t main_before = MainWrites(1);
  const std::uint64_t stable_before = StableWrites(1);
  ASSERT_TRUE(Commit({a}).ok());
  EXPECT_EQ(MainWrites(1) - main_before, 2u);
  EXPECT_EQ(StableWrites(1) - stable_before, 2u);
  CrashAndRestart();
  ASSERT_TRUE(txn_->Recover().ok());
  EXPECT_EQ(Read(s1), Block(kNew));
  EXPECT_EQ(Read(s2), Block(kNew));
  ExpectFsckClean({s1, s2, a}, "tables");
}

// At most kMaxWaitingGroups (8) groups wait: beyond them the oldest ride.
TEST_F(WriteBehindTest, NoMoreThanEightGroupsWait) {
  std::vector<FileId> files;
  for (int i = 0; i < 10; ++i) files.push_back(MakeFile(0));
  const FileId last = MakeFile(0);
  ASSERT_TRUE(Commit(files).ok());
  const std::uint64_t main_before = MainWrites(0);
  ASSERT_TRUE(Commit({last}).ok());
  EXPECT_EQ(MainWrites(0) - main_before, 2u);
  std::size_t landed = 0;
  for (const FileId f : files) landed += OnPlatter(f) == Block(kNew);
  EXPECT_EQ(landed, 2u);
}

// A basic write to a file the log does not name goes straight to its
// disk: one main write, and the log and its waiting blocks stay as they
// are.
TEST_F(WriteBehindTest, ABasicWriteToAFileTheLogDoesNotNameLeavesItAlone) {
  const FileId a = MakeFile(0);
  const FileId b = MakeFile(0);
  const FileId c = MakeFile(0);
  const FileId d = MakeFile(0);
  const FileId e = MakeFile(0);
  ASSERT_TRUE(Commit({a, b, c}).ok());
  ASSERT_TRUE(Commit({d}).ok());
  EXPECT_EQ(OnPlatter(b), Block(0));
  std::vector<std::vector<std::uint8_t>> platters;
  for (const FileId f : {a, b, c, d}) platters.push_back(OnPlatter(f));
  const std::uint64_t main_before = MainWrites(0);
  const std::uint64_t stable_before = StableWrites(0);
  const std::uint64_t log_bytes = txn_->log().BytesUsed();
  ASSERT_TRUE(files_->Write(e, 0, Block(kLater)).ok());
  ASSERT_TRUE(files_->Sync(e).ok());
  EXPECT_EQ(MainWrites(0) - main_before, 1u) << "e alone";
  EXPECT_EQ(StableWrites(0), stable_before);
  EXPECT_EQ(txn_->log().BytesUsed(), log_bytes);
  std::size_t i = 0;
  for (const FileId f : {a, b, c, d}) EXPECT_EQ(OnPlatter(f), platters[i++]);
  EXPECT_EQ(OnPlatter(e), Block(kLater));
}

// A basic write to a file the log names checkpoints first: every waiting
// block lands and the log resets before the write goes out.
TEST_F(WriteBehindTest, ABasicWriteToANamedFileLandsEveryWaitingBlockFirst) {
  const FileId a = MakeFile(0);
  const FileId b = MakeFile(0);
  const FileId c = MakeFile(0);
  const FileId d = MakeFile(0);
  ASSERT_TRUE(Commit({a, b, c}).ok());
  ASSERT_TRUE(Commit({d}).ok());
  EXPECT_EQ(OnPlatter(b), Block(0));
  const std::uint64_t main_before = MainWrites(0);
  ASSERT_TRUE(files_->Write(d, 0, Block(kLater)).ok());
  ASSERT_TRUE(files_->Sync(d).ok());
  EXPECT_EQ(MainWrites(0) - main_before, 4u) << "b, c and d, then d again";
  EXPECT_EQ(txn_->log().BytesUsed(), 0u);
  for (const FileId f : {a, b, c}) EXPECT_EQ(OnPlatter(f), Block(kNew));
  EXPECT_EQ(OnPlatter(d), Block(kLater));
}

// --- power cuts -------------------------------------------------------------------

// Commits of the sequence below, and what each writes.
struct Step {
  std::vector<std::size_t> files;  // indexes into the sequence's files
  std::uint8_t fill;
};

// Files 0-4 are WAL files on disk 0, file 5 a shadowed file on disk 1.
// T1 owes A, X, Z (in either order) and S's table; T2's force carries S's
// table and one of them, T3's and T4's one each, so B, owed since T2,
// waits two forces before T4 itself replaces it; the checkpoint lands B
// and Y.
constexpr std::size_t kA = 0, kX = 1, kZ = 2, kB = 3, kY = 4, kS = 5;
const Step kSteps[] = {
    {{kA, kX, kZ, kS}, kNew},
    {{kB}, kNew},
    {{kY}, kNew},
    {{kB}, kLater},
};

struct Tear {
  std::uint32_t disk;
  bool mirror;
};
constexpr Tear kTears[] = {{0, false}, {0, true}, {1, false}, {1, true}};

// Power is cut at every write of each device while the sequence runs, then
// recovery runs. Each file reads the bytes of the last commit acknowledged
// for it, or of a later one that failed (its record may have landed); the
// first commit is all or nothing; fsck is clean.
TEST_F(WriteBehindTest, WaitingThenReplacedBlockSurvivesATearAtEveryWrite) {
  for (const Tear tear : kTears) {
    for (int k = 0;; ++k) {
      ASSERT_LT(k, 64) << "the sequence never ran out of writes";
      const std::string where = "tear disk " + std::to_string(tear.disk) +
                                (tear.mirror ? "'s mirror" : "'s main") +
                                " after " + std::to_string(k) + " writes";
      Rebuild();
      std::vector<FileId> files;
      for (std::size_t i = 0; i < kS; ++i) files.push_back(MakeFile(0));
      files.push_back(MakeFile(1, /*fragmented=*/true));
      sim::DiskModel& device = tear.mirror ? Disk(tear.disk).stable_device()
                                           : Disk(tear.disk).main_device();
      sim::DiskFaultPlan plan;
      plan.crash_after_writes = k;
      device.SetFaultPlan(plan);
      std::vector<std::set<std::uint8_t>> possible(files.size(), {0});
      std::vector<bool> acks;
      for (const Step& step : kSteps) {
        std::vector<FileId> targets;
        for (const std::size_t i : step.files) targets.push_back(files[i]);
        const bool acked = Commit(targets, step.fill).ok();
        acks.push_back(acked);
        for (const std::size_t i : step.files) {
          if (acked) possible[i].clear();
          possible[i].insert(step.fill);
        }
      }
      const bool b_waited = OnPlatter(files[kB]) == Block(0);
      const bool landed = txn_->Checkpoint().ok();
      const bool tore = device.crashed();
      device.SetFaultPlan({});
      // A checkpoint may land with a device down too: after a failed
      // commit on disk 1 it writes only what disk 0 holds.
      if (!tore) {
        EXPECT_TRUE(landed) << where;
      }

      CrashAndRestart();
      ASSERT_TRUE(txn_->Recover().ok()) << where;
      std::vector<std::uint8_t> held;
      for (std::size_t i = 0; i < files.size(); ++i) {
        const std::vector<std::uint8_t> bytes = Read(files[i]);
        held.push_back(bytes.front());
        EXPECT_EQ(bytes, Block(bytes.front())) << where << ": file " << i;
        EXPECT_TRUE(possible[i].contains(bytes.front()))
            << where << ": file " << i << " holds "
            << static_cast<int>(bytes.front());
        auto attrs = files_->GetAttributes(files[i]);
        ASSERT_TRUE(attrs.ok()) << where;
        EXPECT_EQ(attrs->size, kFileBytes) << where << ": file " << i;
      }
      for (const std::size_t i : {kX, kZ, kS}) {
        EXPECT_EQ(held[i], held[kA]) << where << ": the first commit split";
      }
      if (acks.front()) {
        EXPECT_EQ(held[kA], kNew) << where;
      }
      ExpectFsckClean(files, where);
      if (!tore) {
        EXPECT_TRUE(b_waited) << "B never waited for the checkpoint";
        EXPECT_GT(k, 1) << where << ": the sequence barely wrote the device";
        break;
      }
    }
  }
}

// The facility's own crash and restart, with blocks waiting and one
// replaced: every committed page reads back.
TEST(WriteBehindFacilityTest, CrashServersWithBlocksWaitingRecoversEveryCommit) {
  const std::uint64_t conflicts = sim::LaneConflicts();
  core::FacilityConfig config;
  config.disk_count = 2;
  config.geometry.total_fragments = 8 * 1024;
  core::DistributedFileFacility f(config);
  TransactionService& txns = f.transactions();
  const ProcessId process{1};
  auto commit = [&](const std::vector<FileId>& files, std::uint8_t fill) {
    auto t = txns.Begin(process);
    ASSERT_TRUE(t.ok());
    for (const FileId file : files) {
      ASSERT_TRUE(txns.TWrite(*t, file, 0, Block(fill)).ok());
    }
    ASSERT_TRUE(txns.End(*t).ok());
  };
  // Files of one page each; the first commit grows them, so the next ones
  // owe their data blocks alone.
  std::vector<FileId> files;
  {
    auto t = txns.Begin(process);
    ASSERT_TRUE(t.ok());
    for (int i = 0; i < 6; ++i) {
      auto file = txns.TCreate(*t, file::LockLevel::kPage, kBlockSize);
      ASSERT_TRUE(file.ok());
      files.push_back(*file);
    }
    ASSERT_TRUE(txns.End(*t).ok());
  }
  commit(files, 0x01);
  ASSERT_TRUE(txns.Checkpoint().ok());
  auto main_writes = [&f] {
    std::uint64_t n = 0;
    for (const auto& d : f.disks().disks()) {
      n += d->main_stats().write_references;
    }
    return n;
  };
  commit(files, kNew);
  const std::uint64_t before = main_writes();
  commit({files[0]}, kNew);
  EXPECT_LT(main_writes() - before, files.size()) << "some blocks wait";
  commit({files.back()}, kLater);

  f.CrashServers();
  ASSERT_TRUE(f.RecoverServers().ok());
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::vector<std::uint8_t> out(kBlockSize);
    ASSERT_TRUE(f.OwnerOf(files[i]).ReadBlock(files[i], 0, out).ok());
    EXPECT_EQ(out, Block(i + 1 == files.size() ? kLater : kNew))
        << "file " << i;
  }
  EXPECT_EQ(sim::LaneConflicts(), conflicts);
}

}  // namespace
}  // namespace rhodos::txn
