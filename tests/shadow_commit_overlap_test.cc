// Crash and timing tests for shadow pages that ride the commit force.
//
// A transaction's shadow pages are written by the same flush that forces
// its commit record, as lanes of one section keyed by disk: nothing orders
// a page before the force any more. Recovery makes up for it by checking
// each pending page against the checksum its kShadowMap record carries. The
// crash tests put the shadowed file on disk 1 and the intention log on
// disk 0's stable device, tear one device at a time, and check what
// recovery makes of it; the timing tests check what the overlap saves.
#include <gtest/gtest.h>

#include <algorithm>

#include "file/file_service.h"
#include "file/fsck.h"
#include "sim/parallel.h"
#include "txn/transaction_service.h"

namespace rhodos::txn {
namespace {

using file::FileService;
using file::FileServiceConfig;
using file::LockLevel;

constexpr std::uint64_t kFileBlocks = 4;
constexpr std::uint8_t kNew = 0xD4;    // written by the transaction
constexpr std::uint8_t kLater = 0xE5;  // written in place after it

// With no seek cost, every reference costs rotation plus transfer wherever
// the head rests, so a commit costs the same on either disk.
disk::DiskServerConfig DiskConfig() {
  disk::DiskServerConfig c;
  c.geometry.total_fragments = 8192;
  c.geometry.fragments_per_track = 32;
  c.geometry.seek_base = 0;
  c.geometry.seek_per_track = 0;
  c.cache_capacity_tracks = 16;
  return c;
}

// What one reference of `fragments` costs under DiskConfig().
SimTime Reference(std::uint32_t fragments) {
  const sim::DiskGeometry g = DiskConfig().geometry;
  return g.rotational_latency + fragments * g.transfer_per_fragment;
}

std::vector<std::uint8_t> Block(std::uint8_t fill) {
  return std::vector<std::uint8_t>(kBlockSize, fill);
}

sim::DiskFaultPlan TearAfter(std::int64_t writes) {
  sim::DiskFaultPlan plan;
  plan.crash_after_writes = writes;
  return plan;
}

class ShadowOverlapTest : public ::testing::Test {
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
    TxnServiceConfig config;
    config.technique = TxnServiceConfig::TechniqueOverride::kShadowAlways;
    txn_ = std::make_unique<TransactionService>(
        disks_.get(), [this](FileId) -> FileService& { return *files_; },
        config);
  }

  disk::DiskServer& Disk(std::uint32_t d) { return **disks_->Get(DiskId{d}); }

  // A page-locked file of kFileBlocks zero blocks homed on disk `d`, with
  // the bitmap persisted so recovery starts from exactly this allocation.
  FileId MakeFileOn(std::uint32_t d) {
    for (;;) {
      auto file = files_->Create(file::ServiceType::kTransaction,
                                 kFileBlocks * kBlockSize);
      EXPECT_TRUE(file.ok());
      if (file::FileDisk(*file).value != d) continue;
      EXPECT_TRUE(files_->SetLockLevel(*file, LockLevel::kPage).ok());
      EXPECT_TRUE(files_->Resize(*file, kFileBlocks * kBlockSize).ok());
      EXPECT_TRUE(files_->FlushAll().ok());
      return *file;
    }
  }

  // One transaction writing `fill` over `pages` of `file`; returns End's
  // status.
  Status Commit(FileId file, std::initializer_list<std::uint64_t> pages,
                std::uint8_t fill = kNew) {
    auto t = txn_->Begin(ProcessId{1});
    EXPECT_TRUE(t.ok());
    for (std::uint64_t page : pages) {
      EXPECT_TRUE(txn_->TWrite(*t, file, page * kBlockSize, Block(fill)).ok());
    }
    return txn_->End(*t);
  }

  // Power cut, then the restart order up to (not including) transaction
  // recovery.
  void CrashAndRestart() {
    disks_->CrashAll();
    files_->Crash();
    ASSERT_TRUE(disks_->RecoverAll().ok());
    Restart();
    ASSERT_TRUE(files_->RecoverSnapshots().ok());
  }

  // The shadow-map records the stable log holds.
  std::vector<IntentionRecord> ShadowRecords() {
    std::vector<IntentionRecord> out;
    EXPECT_TRUE(txn_->log()
                    .Scan([&](const IntentionRecord& r) {
                      if (r.kind == IntentionKind::kShadowMap) {
                        out.push_back(r);
                      }
                    })
                    .ok());
    return out;
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
  std::uint64_t conflicts_ = 0;
};

// --- crashes -----------------------------------------------------------------

// The force lands but one copy of the shadow page tears: the commit record
// is durable, its page is not, so recovery discards the transaction.
TEST_F(ShadowOverlapTest, TornShadowCopyUnderALandedForceIsDiscarded) {
  for (const bool tear_mirror : {false, true}) {
    Rebuild();
    const FileId file = MakeFileOn(1);
    disk::DiskServer& d1 = Disk(1);
    const std::uint64_t free_before = d1.FreeFragmentCount();
    (tear_mirror ? d1.stable_device() : d1.main_device())
        .SetFaultPlan(TearAfter(0));
    EXPECT_FALSE(Commit(file, {0}).ok()) << "tear_mirror=" << tear_mirror;
    EXPECT_EQ(txn_->log().stats().forces, 1u) << "the force landed";

    CrashAndRestart();
    const std::vector<IntentionRecord> shadows = ShadowRecords();
    ASSERT_EQ(shadows.size(), 1u);
    ASSERT_TRUE(txn_->Recover().ok());
    EXPECT_EQ(txn_->stats().recovered_redone, 0u);
    EXPECT_EQ(txn_->stats().recovered_discarded, 1u);
    EXPECT_EQ(ReadBlock(file, 0), Block(0)) << "tear_mirror=" << tear_mirror;
    EXPECT_FALSE(d1.IsFragmentAllocated(shadows[0].new_fragment));
    EXPECT_EQ(d1.FreeFragmentCount(), free_before);
  }
}

// The shadow page lands but the force tears: the commit record never
// reached the log, so the transaction is discarded as it always was.
TEST_F(ShadowOverlapTest, LandedShadowUnderATornForceIsDiscarded) {
  const FileId file = MakeFileOn(1);
  disk::DiskServer& d1 = Disk(1);
  const std::uint64_t free_before = d1.FreeFragmentCount();
  const std::uint64_t writes_before = d1.main_stats().write_references;
  Disk(0).stable_device().SetFaultPlan(TearAfter(0));
  EXPECT_FALSE(Commit(file, {0}).ok());
  EXPECT_EQ(d1.main_stats().write_references, writes_before + 1)
      << "the shadow page landed";

  CrashAndRestart();
  ASSERT_TRUE(txn_->Recover().ok());
  EXPECT_EQ(txn_->stats().recovered_redone, 0u);
  EXPECT_EQ(ReadBlock(file, 0), Block(0));
  EXPECT_EQ(d1.FreeFragmentCount(), free_before);
}

// Page and force both land, then the write-behind tears (the remapped
// index table's store): recovery finds the page intact, redoes the remap
// and frees the block it replaced, which the bitmap on disk still held.
TEST_F(ShadowOverlapTest, LandedShadowAndForceWithATornApplyIsRedone) {
  for (const bool tear_mirror : {false, true}) {
    Rebuild();
    const FileId file = MakeFileOn(1);
    disk::DiskServer& d1 = Disk(1);
    const std::uint64_t free_before = d1.FreeFragmentCount();
    // Either device: the shadow copy, then the table store.
    (tear_mirror ? d1.stable_device() : d1.main_device())
        .SetFaultPlan(TearAfter(1));
    EXPECT_TRUE(Commit(file, {0}).ok()) << "tear_mirror=" << tear_mirror;
    EXPECT_FALSE(txn_->Checkpoint().ok()) << "tear_mirror=" << tear_mirror;

    CrashAndRestart();
    ASSERT_TRUE(txn_->Recover().ok());
    EXPECT_EQ(txn_->stats().recovered_redone, 1u);
    EXPECT_EQ(ReadBlock(file, 0), Block(kNew)) << "tear_mirror=" << tear_mirror;
    auto loc = files_->LocateBlock(file, 0);
    ASSERT_TRUE(loc.ok());
    EXPECT_TRUE(d1.IsFragmentAllocated(loc->first_fragment))
        << "tear_mirror=" << tear_mirror << " at " << loc->first_fragment;
    EXPECT_EQ(d1.FreeFragmentCount(), free_before)
        << "tear_mirror=" << tear_mirror;
  }
}

// Page and force land, then the write-behind's table store lands on the
// main copy only. Recovery finds the remap applied and must still bring
// the mirror up to date: a later loss of the main copy falls back to the
// mirror, which must not map the replaced block.
TEST_F(ShadowOverlapTest, TornApplyLeavesNoStaleMirrorBehind) {
  const FileId file = MakeFileOn(1);
  disk::DiskServer& d1 = Disk(1);
  // The shadow page's mirror copy, then the table's.
  d1.stable_device().SetFaultPlan(TearAfter(1));
  EXPECT_TRUE(Commit(file, {0}).ok());
  EXPECT_FALSE(txn_->Checkpoint().ok());
  CrashAndRestart();
  ASSERT_TRUE(txn_->Recover().ok());
  EXPECT_EQ(txn_->stats().recovered_redone, 1u);
  std::vector<std::uint8_t> main(kFragmentSize);
  std::vector<std::uint8_t> mirror(kFragmentSize);
  ASSERT_TRUE(d1.GetBlock(file::FileFitFragment(file), 1, main).ok());
  ASSERT_TRUE(d1.GetBlock(file::FileFitFragment(file), 1, mirror,
                          disk::ReadSource::kStable)
                  .ok());
  EXPECT_EQ(main, mirror);

  d1.main_device().RawOverwrite(
      file::FileFitFragment(file),
      std::vector<std::uint8_t>(kFragmentSize, 0xFF));
  CrashAndRestart();
  ASSERT_TRUE(txn_->Recover().ok());
  EXPECT_EQ(ReadBlock(file, 0), Block(kNew));
}

// A copy that cannot be read leaves recovery unable to decide: it fails
// and changes nothing, and a later attempt with the device healthy redoes
// the transaction.
TEST_F(ShadowOverlapTest, VerificationReadErrorFailsRecoverAndFreesNothing) {
  const FileId file = MakeFileOn(1);
  disk::DiskServer& d1 = Disk(1);
  d1.main_device().SetFaultPlan(TearAfter(1));  // tears the write-behind
  EXPECT_TRUE(Commit(file, {0}).ok());
  EXPECT_FALSE(txn_->Checkpoint().ok());

  CrashAndRestart();
  const std::vector<IntentionRecord> shadows = ShadowRecords();
  ASSERT_EQ(shadows.size(), 1u);
  auto old_loc = files_->LocateBlock(file, 0);  // caches the table
  ASSERT_TRUE(old_loc.ok());
  ASSERT_NE(old_loc->first_fragment, shadows[0].new_fragment);
  ASSERT_TRUE(d1.AllocateSpecific(shadows[0].new_fragment, kFragmentsPerBlock)
                  .ok());
  const std::uint64_t free_before = d1.FreeFragmentCount();
  sim::DiskFaultPlan unreadable;
  unreadable.media_error_rate = 1.0;
  d1.stable_device().SetFaultPlan(unreadable);
  const Status failed = txn_->Recover();
  EXPECT_EQ(failed.code(), ErrorCode::kMediaError);
  EXPECT_EQ(txn_->stats().recovered_redone, 0u);
  EXPECT_EQ(txn_->stats().recovered_discarded, 0u);
  EXPECT_EQ(d1.FreeFragmentCount(), free_before);
  EXPECT_TRUE(d1.IsFragmentAllocated(shadows[0].new_fragment));
  auto loc = files_->LocateBlock(file, 0);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->first_fragment, old_loc->first_fragment);

  d1.stable_device().SetFaultPlan({});
  ASSERT_TRUE(txn_->Recover().ok());
  EXPECT_EQ(txn_->stats().recovered_redone, 1u);
  EXPECT_EQ(ReadBlock(file, 0), Block(kNew));
}

// A shadow-map record's checksum is 8 bytes; any other length is a
// damaged log, which recovery reports instead of trusting.
TEST_F(ShadowOverlapTest, ShadowMapWithAMalformedChecksumFailsRecover) {
  const FileId file = MakeFileOn(1);
  for (const std::size_t bytes : {0u, 3u, 9u}) {
    const TxnId t{100 + bytes};
    ASSERT_TRUE(txn_->log()
                    .Append(IntentionRecord{IntentionKind::kBegin, t, {}, 0, 0,
                                            {}, 0, TxnStatus::kTentative, {}})
                    .ok());
    IntentionRecord shadow{IntentionKind::kShadowMap, t, file, 0, 0,
                           DiskId{1}, 4000, TxnStatus::kTentative, {}};
    shadow.data.assign(bytes, 0x5A);
    ASSERT_TRUE(txn_->log().Append(shadow).ok());
    ASSERT_TRUE(txn_->log()
                    .Append(IntentionRecord{IntentionKind::kStatus, t, {}, 0,
                                            0, {}, 0, TxnStatus::kCommit, {}})
                    .ok());
    EXPECT_EQ(txn_->Recover().code(), ErrorCode::kMediaError)
        << bytes << "-byte checksum";
    EXPECT_EQ(ReadBlock(file, 0), Block(0));
    ASSERT_TRUE(txn_->log().Truncate().ok());
  }
}

// A remap already applied is the file's block: its bytes may have changed
// in place since (here behind the service's back, on both copies), and
// recovery must neither check nor free it.
TEST_F(ShadowOverlapTest, AppliedRemapRewrittenInPlaceIsKept) {
  const FileId file = MakeFileOn(1);
  const FileId other = MakeFileOn(0);
  ASSERT_TRUE(Commit(file, {0}).ok());
  // The next commit's force carries the remapped table; both commits stay
  // in the log.
  ASSERT_TRUE(Commit(other, {0}).ok());
  auto loc = files_->LocateBlock(file, 0);
  ASSERT_TRUE(loc.ok());
  const std::vector<std::uint8_t> later(kFragmentSize, kLater);
  for (std::uint32_t f = 0; f < kFragmentsPerBlock; ++f) {
    Disk(1).main_device().RawOverwrite(loc->first_fragment + f, later);
    Disk(1).stable_device().RawOverwrite(loc->first_fragment + f, later);
  }

  CrashAndRestart();
  ASSERT_TRUE(txn_->Recover().ok());
  EXPECT_EQ(txn_->stats().recovered_redone, 2u);
  EXPECT_EQ(txn_->stats().recovered_discarded, 0u);
  EXPECT_EQ(ReadBlock(file, 0), Block(kLater));
  EXPECT_TRUE(Disk(1).IsFragmentAllocated(loc->first_fragment));
}

// A long log: a later commit replaces the block an earlier one remapped
// to, and once its table has landed another commit takes the freed hole.
// Recovery must not check the earlier remap's page against that block —
// it would discard an acknowledged commit and free a live block — nor
// free the reused block as a replaced one.
TEST_F(ShadowOverlapTest, RecoveryOverALongLogKeepsAReusedBlock) {
  const FileId file = MakeFileOn(1);
  const FileId other = MakeFileOn(1);
  ASSERT_TRUE(Commit(file, {0}, 0x11).ok());
  auto first = files_->LocateBlock(file, 0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(Commit(file, {0}, 0x22).ok());   // replaces `first`
  ASSERT_TRUE(Commit(other, {0}, 0x33).ok());  // carries that table
  ASSERT_TRUE(Commit(other, {1}, 0x44).ok());  // may take the hole
  auto reused = files_->LocateBlock(other, 1);
  ASSERT_TRUE(reused.ok());
  ASSERT_EQ(reused->first_fragment, first->first_fragment)
      << "the test needs the freed block reused";

  CrashAndRestart();
  ASSERT_TRUE(txn_->Recover().ok());
  EXPECT_EQ(txn_->stats().recovered_redone, 4u);
  EXPECT_EQ(txn_->stats().recovered_discarded, 0u);
  EXPECT_EQ(ReadBlock(file, 0), Block(0x22));
  EXPECT_EQ(ReadBlock(other, 0), Block(0x33));
  EXPECT_EQ(ReadBlock(other, 1), Block(0x44));
  EXPECT_TRUE(Disk(1).IsFragmentAllocated(reused->first_fragment));
  const FileId audited[] = {file, other};
  const TransactionService::LogRegion log = txn_->log_region();
  const file::ReservedRegion reserved[] = {
      {log.disk, log.first, log.fragments}};
  EXPECT_TRUE(file::AuditFiles(*files_, audited, reserved).clean());
}

// A commit N leaves its table and a growth page owed; the next commit's
// force tears, so only Recover() can settle the log, yet that force
// carried N's write-behind and freed the block N's remap replaced. Until
// Recover() runs, a put the log claims — a basic write to N's page, which
// the log names, a create that could take the freed block — is refused
// and writes nothing: recovery will redo N, and would redo it over the one
// and free the block under the other. After Recover() both go through and survive
// the next power cut.
TEST_F(ShadowOverlapTest, UncoveredWritesWaitForRecoveryAfterATornForce) {
  const FileId file = MakeFileOn(1);
  const FileId other = MakeFileOn(1);
  auto replaced = files_->LocateBlock(file, 0);
  ASSERT_TRUE(replaced.ok());
  // Page 0 is remapped, the page past the end grows the file by WAL.
  ASSERT_TRUE(Commit(file, {0, kFileBlocks}).ok());
  ASSERT_EQ(ShadowRecords().size(), 1u);
  Disk(0).stable_device().SetFaultPlan(TearAfter(0));
  EXPECT_FALSE(Commit(other, {0}).ok());
  ASSERT_FALSE(Disk(1).IsFragmentAllocated(replaced->first_fragment))
      << "the torn force carried N's table and freed the replaced block";

  auto writes = [this] {
    std::uint64_t n = 0;
    for (const auto& d : disks_->disks()) {
      n += d->main_stats().write_references +
           d->stable_stats().write_references;
    }
    return n;
  };
  const std::uint64_t before = writes();
  const auto later = Block(kLater);
  // A basic write to each of N's pages: the remapped one and the WAL one.
  auto basic = [&] {
    return files_->Write(file, 0, later).ok() &&
           files_->Write(file, kFileBlocks * kBlockSize, later).ok() &&
           files_->Sync(file).ok();
  };
  EXPECT_FALSE(basic());
  auto created = files_->Create(file::ServiceType::kTransaction, kBlockSize);
  EXPECT_FALSE(created.ok());
  EXPECT_FALSE(txn_->Checkpoint().ok());
  EXPECT_EQ(writes(), before);

  CrashAndRestart();
  ASSERT_TRUE(txn_->Recover().ok());
  EXPECT_EQ(ReadBlock(file, 0), Block(kNew));
  EXPECT_EQ(ReadBlock(file, kFileBlocks), Block(kNew));
  EXPECT_EQ(ReadBlock(other, 0), Block(0));

  // The log is settled: the same writes go through, and a crash keeps them.
  ASSERT_TRUE(basic());
  std::vector<FileId> audited = {file, other};
  for (int i = 0; i < 4; ++i) {
    auto fresh = files_->Create(file::ServiceType::kTransaction, kBlockSize);
    ASSERT_TRUE(fresh.ok());
    audited.push_back(*fresh);
  }
  ASSERT_TRUE(files_->FlushAll().ok());
  CrashAndRestart();
  ASSERT_TRUE(txn_->Recover().ok());
  EXPECT_EQ(ReadBlock(file, 0), later);
  EXPECT_EQ(ReadBlock(file, kFileBlocks), later);
  const TransactionService::LogRegion log = txn_->log_region();
  const file::ReservedRegion reserved[] = {
      {log.disk, log.first, log.fragments}};
  const auto report = file::AuditFiles(*files_, audited, reserved);
  EXPECT_TRUE(report.clean()) << report.issues.size() << " issues";
}

// The same torn force, the stable device then back (a transient error):
// the next basic write the log claims runs a checkpoint that settles the
// log, with no restart and while another transaction is live, and the
// write goes through. The failed commit stays aborted and its shadow block
// is free again. While the device is still down nothing settles.
TEST_F(ShadowOverlapTest, UncoveredWritesGoThroughOnceTheLogDeviceIsBack) {
  const FileId file = MakeFileOn(1);
  const FileId other = MakeFileOn(1);
  ASSERT_TRUE(Commit(file, {0, kFileBlocks}).ok());
  Disk(0).stable_device().SetFaultPlan(TearAfter(0));
  EXPECT_FALSE(Commit(other, {0}).ok());
  Disk(0).stable_device().SetFaultPlan({});
  const auto later = Block(kLater);
  auto basic = [&] {
    return files_->Write(file, 0, later).ok() &&
           files_->Write(file, kFileBlocks * kBlockSize, later).ok() &&
           files_->Sync(file).ok();
  };
  EXPECT_FALSE(basic()) << "the log's device is still down";
  EXPECT_FALSE(files_->Create(file::ServiceType::kTransaction, kBlockSize).ok());
  EXPECT_FALSE(txn_->Checkpoint().ok());
  auto located = files_->LocateBlock(other, 0);
  ASSERT_TRUE(located.ok());
  const std::uint64_t free_before = Disk(1).FreeFragmentCount();

  Disk(0).stable_device().Recover();
  auto live = txn_->Begin(ProcessId{2});
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(
      txn_->TWrite(*live, other, kBlockSize, Block(kLater)).ok());
  ASSERT_TRUE(basic()) << "a live transaction does not hold the settle up";
  EXPECT_EQ(Disk(1).FreeFragmentCount(), free_before + kFragmentsPerBlock)
      << "the failed commit's shadow block is free again";
  EXPECT_EQ(files_->LocateBlock(other, 0)->first_fragment,
            located->first_fragment);
  EXPECT_EQ(ReadBlock(other, 0), Block(0));
  ASSERT_TRUE(txn_->End(*live).ok());

  std::vector<FileId> audited = {file, other};
  auto created = files_->Create(file::ServiceType::kTransaction, kBlockSize);
  ASSERT_TRUE(created.ok());
  audited.push_back(*created);
  ASSERT_TRUE(Commit(other, {0}).ok()) << "commits go on as before";
  ASSERT_TRUE(files_->FlushAll().ok());
  CrashAndRestart();
  ASSERT_TRUE(txn_->Recover().ok());
  EXPECT_EQ(ReadBlock(file, 0), later);
  EXPECT_EQ(ReadBlock(file, kFileBlocks), later);
  EXPECT_EQ(ReadBlock(other, 0), Block(kNew));
  EXPECT_EQ(ReadBlock(other, 1), Block(kLater));
  const TransactionService::LogRegion log = txn_->log_region();
  const file::ReservedRegion reserved[] = {
      {log.disk, log.first, log.fragments}};
  const auto report = file::AuditFiles(*files_, audited, reserved);
  EXPECT_TRUE(report.clean()) << report.issues.size() << " issues";
}

// The same torn force, the stable device still down: a write-through
// write to the file the log names is refused before it reaches the block
// pool, so a read sees the committed bytes now and after the log settles.
TEST_F(ShadowOverlapTest, ARefusedBasicWriteLeavesTheOldBytesReadable) {
  const FileId file = MakeFileOn(1);
  const FileId other = MakeFileOn(1);
  ASSERT_TRUE(Commit(file, {0, kFileBlocks}).ok());
  Disk(0).stable_device().SetFaultPlan(TearAfter(0));
  EXPECT_FALSE(Commit(other, {0}).ok());
  Disk(0).stable_device().SetFaultPlan({});

  for (const std::uint64_t block : {std::uint64_t{0}, kFileBlocks}) {
    auto refused = files_->Write(file, block * kBlockSize, Block(kLater));
    ASSERT_FALSE(refused.ok()) << "block " << block;
    EXPECT_EQ(refused.error().code, ErrorCode::kUnavailable);
    EXPECT_EQ(ReadBlock(file, block), Block(kNew)) << "block " << block;
  }

  Disk(0).stable_device().Recover();
  ASSERT_TRUE(files_->FlushAll().ok());
  EXPECT_EQ(ReadBlock(file, 0), Block(kNew));
  EXPECT_EQ(ReadBlock(file, kFileBlocks), Block(kNew));
}

// A getattr, sync or close of a file whose committed changes the log
// still owes writes nothing, and the close keeps the committed table:
// the next force or checkpoint carries the writes.
TEST_F(ShadowOverlapTest, MetaOpsOnALoggedFileWriteNothing) {
  const FileId file = MakeFileOn(1);
  ASSERT_TRUE(files_->Open(file).ok());
  ASSERT_TRUE(Commit(file, {0}).ok());
  auto writes = [this] {
    std::uint64_t n = 0;
    for (const auto& d : disks_->disks()) {
      n += d->main_stats().write_references +
           d->stable_stats().write_references;
    }
    return n;
  };
  const std::uint64_t before = writes();
  ASSERT_TRUE(files_->GetAttributes(file).ok());
  ASSERT_TRUE(files_->Sync(file).ok());
  ASSERT_TRUE(files_->Close(file).ok());
  EXPECT_EQ(writes(), before);
  EXPECT_EQ(ReadBlock(file, 0), Block(kNew));
  ASSERT_TRUE(txn_->Checkpoint().ok());
  EXPECT_GT(writes(), before);
}

// --- timing ------------------------------------------------------------------

// On disk 1 the shadow page and the force on disk 0 overlap: the commit
// pays the slower of the two plus two lane dispatches, where the same
// commit on the log's disk pays both in turn.
TEST_F(ShadowOverlapTest, CommitOnTheOtherDiskHidesTheForce) {
  const FileId on_log_disk = MakeFileOn(0);
  const FileId off_log_disk = MakeFileOn(1);
  ASSERT_TRUE(Commit(on_log_disk, {1}).ok());

  // Each timed commit follows a checkpoint: it carries no write-behind
  // and forces the same frames at offset 0.
  SimTime force = 0;
  auto timed = [&](FileId file) {
    EXPECT_TRUE(txn_->Checkpoint().ok());
    const SimTime t0 = clock_.Now();
    const SimTime force_before = Disk(0).stable_stats().time_charged;
    EXPECT_TRUE(Commit(file, {0}).ok());
    force = Disk(0).stable_stats().time_charged - force_before;
    return clock_.Now() - t0;
  };
  const SimTime serial = timed(on_log_disk);
  const SimTime overlapped = timed(off_log_disk);
  EXPECT_EQ(txn_->stats().shadow_commits, 3u);
  ASSERT_GT(force, 2 * sim::kLaneDispatchCost);
  EXPECT_EQ(serial - overlapped, force - 2 * sim::kLaneDispatchCost);
  EXPECT_EQ(ReadBlock(off_log_disk, 0), Block(kNew));
}

// Two pages homed on one disk get one contiguous run, staged with one
// reference per device, and one store of the file's index table, which
// the next force carries: the second page adds only its own transfer to a
// one-page commit.
TEST_F(ShadowOverlapTest, TwoShadowPagesOnOneDiskShareOneRun) {
  const FileId file = MakeFileOn(1);
  const FileId on_log_disk = MakeFileOn(0);
  disk::DiskServer& d1 = Disk(1);
  // A one-block hole, which one-block-per-page allocation would fill first.
  auto hole = d1.AllocateBlocks(1);
  ASSERT_TRUE(hole.ok());
  ASSERT_TRUE(d1.AllocateBlocks(1).ok());
  ASSERT_TRUE(d1.FreeFragments(*hole, kFragmentsPerBlock).ok());
  ASSERT_TRUE(Commit(on_log_disk, {0}).ok());
  struct Cost {
    std::uint64_t main_writes, mirror_writes, table_stores;
    SimTime elapsed;
  };
  // Each commit follows a checkpoint: it carries no write-behind and
  // forces the same frames at offset 0.
  auto commit = [&](std::initializer_list<std::uint64_t> pages) {
    EXPECT_TRUE(txn_->Checkpoint().ok());
    auto t = txn_->Begin(ProcessId{1});
    EXPECT_TRUE(t.ok());
    for (std::uint64_t page : pages) {
      EXPECT_TRUE(txn_->TWrite(*t, file, page * kBlockSize, Block(kNew)).ok());
    }
    const Cost before{d1.main_stats().write_references,
                      d1.stable_stats().write_references,
                      files_->stats().fit_stores, clock_.Now()};
    EXPECT_TRUE(txn_->End(*t).ok());
    return Cost{d1.main_stats().write_references - before.main_writes,
                d1.stable_stats().write_references - before.mirror_writes,
                files_->stats().fit_stores - before.table_stores,
                clock_.Now() - before.elapsed};
  };
  const Cost two = commit({0, 2});
  auto first = files_->LocateBlock(file, 0);
  auto second = files_->LocateBlock(file, 2);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(second->disk, first->disk);
  EXPECT_EQ(second->first_fragment, first->first_fragment + kFragmentsPerBlock);
  EXPECT_NE(first->first_fragment, *hole);
  EXPECT_EQ(ReadBlock(file, 0), Block(kNew));
  EXPECT_EQ(ReadBlock(file, 2), Block(kNew));
  EXPECT_EQ(two.table_stores, 1u);
  // The flush: the run's two copies (a lane each) in a lane beside the
  // force.
  EXPECT_EQ(two.elapsed,
            Reference(2 * kFragmentsPerBlock) + 4 * sim::kLaneDispatchCost);

  const Cost one = commit({1});
  EXPECT_EQ(one.table_stores, 1u);
  EXPECT_EQ(two.main_writes, one.main_writes);
  EXPECT_EQ(two.mirror_writes, one.mirror_writes);
  EXPECT_EQ(two.elapsed - one.elapsed, Reference(2 * kFragmentsPerBlock) -
                                           Reference(kFragmentsPerBlock));
}

// A committed remap's write-behind stores a one-fragment table's two
// copies at once, but a table with an indirect block keeps main then
// mirror for each block: a 4-fragment copy can tear midway, and the
// careful order keeps one intact.
TEST_F(ShadowOverlapTest, IndirectBlocksKeepARemapStoreCareful) {
  using Copies = file::LoggedWrite::Copies;
  auto remap = [&](FileId file, std::uint64_t block) {
    auto fresh = files_->AllocateShadowBlocks(file, 1);
    EXPECT_TRUE(fresh.ok());
    EXPECT_TRUE(files_
                    ->ReplaceBlocks(file, {{block, fresh->front().disk,
                                            fresh->front().first}})
                    .ok());
  };
  // How the write-behind of one logged remap writes each table block.
  auto logged_remap = [&](FileId file, std::uint64_t block) {
    FileService::LoggedApply logged(*files_);
    remap(file, block);
    auto writes = files_->TakeLoggedWrites(file);
    EXPECT_TRUE(writes.ok());
    std::vector<Copies> copies;
    for (const file::LoggedWrite& w : writes->writes) {
      copies.push_back(w.copies);
    }
    return copies;
  };
  const FileId small = MakeFileOn(1);
  EXPECT_EQ(logged_remap(small, 0), std::vector<Copies>{Copies::kAtOnce});

  // Every other block remapped: more runs than the table fragment holds.
  constexpr std::uint64_t kBlocks = 2 * file::kDirectRuns + 2;
  auto large = files_->Create(file::ServiceType::kTransaction,
                              kBlocks * kBlockSize);
  ASSERT_TRUE(large.ok());
  for (std::uint64_t b = 0; b < kBlocks; b += 2) remap(*large, b);
  auto indirect = files_->IndirectBlockLocations(*large);
  ASSERT_TRUE(indirect.ok());
  ASSERT_EQ(indirect->size(), 1u);
  EXPECT_EQ(logged_remap(*large, 1),
            (std::vector<Copies>{Copies::kMainThenMirror,
                                 Copies::kMainThenMirror}));
}

// --- the flush itself --------------------------------------------------------

class FreshRunFlushTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int d = 0; d < 2; ++d) disks_.AddDisk(DiskConfig(), &clock_);
    disk::DiskServer& d0 = Disk(0);
    const FragmentIndex first = d0.MetadataFragments();
    ASSERT_TRUE(d0.AllocateSpecific(first, 16).ok());
    log_ = std::make_unique<TxnLog>(&d0, first, 16);
    pipeline_ = std::make_unique<LogPipeline>(log_.get(), &d0, &mu_,
                                              GroupCommitConfig{});
  }

  disk::DiskServer& Disk(std::uint32_t d) { return **disks_.Get(DiskId{d}); }

  // Commits one record carrying a `blocks`-block run on disk `d`; returns
  // the elapsed sim time.
  SimTime CommitWithRun(std::uint32_t d, std::uint32_t blocks) {
    disk::DiskServer& server = Disk(d);
    auto first = server.AllocateBlocks(blocks);
    EXPECT_TRUE(first.ok());
    std::vector<FreshRun> runs;
    runs.push_back(FreshRun{&server, *first,
                            std::vector<std::uint8_t>(blocks * kBlockSize, 7)});
    const SimTime t0 = clock_.Now();
    auto ticket = [&] {
      std::scoped_lock io(mu_);
      return pipeline_->Append(
          IntentionRecord{IntentionKind::kStatus, TxnId{1}, {}, 0, 0, {}, 0,
                          TxnStatus::kCommit, {}},
          std::move(runs));
    }();
    EXPECT_TRUE(ticket.ok());
    EXPECT_TRUE(pipeline_->AwaitDurable(*ticket).ok());
    return clock_.Now() - t0;
  }

  SimClock clock_;
  disk::DiskRegistry disks_;
  std::mutex mu_;
  std::unique_ptr<TxnLog> log_;
  std::unique_ptr<LogPipeline> pipeline_;
};

// Two blocks on disk 1 go out as one reference per device, in a lane
// beside the force on disk 0: the flush costs the slower lane plus two
// dispatches.
TEST_F(FreshRunFlushTest, RunOnAnotherDiskOverlapsTheForce) {
  const std::uint64_t conflicts = sim::LaneConflicts();
  const SimTime elapsed = CommitWithRun(1, 2);
  EXPECT_EQ(Disk(1).main_stats().write_references, 1u);
  EXPECT_EQ(Disk(1).main_stats().fragments_written, 2 * kFragmentsPerBlock);
  EXPECT_EQ(Disk(1).stable_stats().write_references, 1u);
  EXPECT_EQ(Disk(0).stable_stats().write_references, 1u);  // the force
  EXPECT_EQ(Disk(0).main_stats().write_references, 0u);
  // Main and mirror of the run overlap too, inside the run's lane.
  const SimTime run =
      Reference(2 * kFragmentsPerBlock) + 2 * sim::kLaneDispatchCost;
  EXPECT_EQ(elapsed, std::max(run, Reference(1)) + 2 * sim::kLaneDispatchCost);
  EXPECT_EQ(sim::LaneConflicts(), conflicts);
}

// On the log's own disk there is nothing to overlap: the run, then the
// force, with no dispatch charged around them.
TEST_F(FreshRunFlushTest, RunOnTheLogDiskPrecedesTheForce) {
  const SimTime elapsed = CommitWithRun(0, 1);
  EXPECT_EQ(Disk(0).main_stats().write_references, 1u);
  EXPECT_EQ(Disk(0).stable_stats().write_references, 2u);  // mirror, force
  EXPECT_EQ(elapsed, Reference(kFragmentsPerBlock) +
                         2 * sim::kLaneDispatchCost + Reference(1));
}

}  // namespace
}  // namespace rhodos::txn
