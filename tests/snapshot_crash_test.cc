// Crash matrix for O(1) snapshots and writable clones (E23): a fixed
// workload of captures, copy-on-write splits, a shared truncate and a
// shared delete is replayed with the stable store dying at EVERY write
// boundary in turn, and again with the main device dying at every write.
// After each crash the service restarts, replays the snapshot journal, and
// must present an all-or-nothing world:
//
//   * every ACKED capture is fully present — readable, byte-identical to
//     the source's content at capture time, immutable if a snapshot;
//   * every ACKED delete is fully absent;
//   * the sources never tear structurally — a COW split either completed
//     (private copy) or never happened (still shared), and both present
//     the same bytes;
//   * fsck reconciles every claim against the stored share counts: no
//     refcount drift, no double allocation, no claim inside the journal's
//     reserved region.
//
// A second group of tests hand-corrupts stored share counts in BOTH
// directions through the test hook and asserts fsck names the exact block
// run, each direction producing exactly its own issue kind.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "file/file_service.h"
#include "file/fsck.h"

namespace rhodos::file {
namespace {

constexpr std::uint64_t kFileBlocks = 4;

disk::DiskServerConfig DiskConfig(std::uint64_t fault_seed = 1) {
  disk::DiskServerConfig c;
  c.geometry.total_fragments = 8192;
  c.geometry.fragments_per_track = 32;
  c.cache_capacity_tracks = 16;
  c.fault_seed = fault_seed;
  return c;
}

FileServiceConfig ServiceConfig() {
  FileServiceConfig c;
  // Write-through: every acked Write is durable, so the oracle below can
  // treat ack as a promise (delayed-write loss would muddy the matrix).
  c.basic_write_policy = file::WritePolicy::kWriteThrough;
  return c;
}

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 13);
  }
  return v;
}

// One capture the workload acked, with the bytes it must forever hold.
struct CaptureRecord {
  FileId id{};
  std::vector<std::uint8_t> expect;
  bool writable = false;       // clone
  bool deleted = false;        // acked delete: must be absent
  bool delete_unknown = false; // delete failed mid-crash: either is legal
};

// What the workload established before the crash cut it short.
struct RunState {
  std::vector<CaptureRecord> captures;
  std::vector<std::uint8_t> a_model;  // nullopt-style: valid flags below
  std::vector<std::uint8_t> b_model;
  bool a_valid = false;
  bool b_valid = false;
};

class SnapshotCrashTest : public ::testing::Test {
 protected:
  void Rebuild(std::uint64_t fault_seed = 1) {
    files_.reset();
    disks_ = std::make_unique<disk::DiskRegistry>();
    disks_->AddDisk(DiskConfig(fault_seed), &clock_);
    files_ =
        std::make_unique<FileService>(disks_.get(), &clock_, ServiceConfig());
  }

  // Restart the service after a crash, reusing the platters, and replay
  // the snapshot journal.
  void Restart() {
    files_.reset();
    files_ =
        std::make_unique<FileService>(disks_.get(), &clock_, ServiceConfig());
    ASSERT_TRUE(files_->RecoverSnapshots().ok());
  }

  sim::DiskModel& Stable() {
    return (*disks_->Get(DiskId{0}))->stable_device();
  }
  sim::DiskModel& Main() { return (*disks_->Get(DiskId{0}))->main_device(); }

  void BuildWorld(std::uint64_t fault_seed = 1) {
    Rebuild(fault_seed);
    auto a = files_->Create(ServiceType::kBasic, kFileBlocks * kBlockSize);
    auto b = files_->Create(ServiceType::kBasic, kFileBlocks * kBlockSize);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    a_ = *a;
    b_ = *b;
    ASSERT_TRUE(
        files_->Write(a_, 0, Pattern(kFileBlocks * kBlockSize, 0x11)).ok());
    ASSERT_TRUE(
        files_->Write(b_, 0, Pattern(kFileBlocks * kBlockSize, 0x22)).ok());
    ASSERT_TRUE(files_->FlushAll().ok());
  }

  // The deterministic storm. Each step records its effect only when acked;
  // the first failure stops the workload (the disk is dead anyway) leaving
  // the records describing exactly what the service promised.
  RunState RunWorkload() {
    RunState st;
    st.a_model = Pattern(kFileBlocks * kBlockSize, 0x11);
    st.b_model = Pattern(kFileBlocks * kBlockSize, 0x22);
    st.a_valid = st.b_valid = true;

    // 1. Snapshot A, then COW-split A by overwriting a shared block.
    auto snap_a = files_->Snapshot(a_);
    if (!snap_a.ok()) return st;
    st.captures.push_back({*snap_a, st.a_model, /*writable=*/false});

    const auto block1 = Pattern(kBlockSize, 0x33);
    if (!files_->Write(a_, kBlockSize, block1).ok()) {
      st.a_valid = false;  // the failed write may have torn its block
      return st;
    }
    std::copy(block1.begin(), block1.end(), st.a_model.begin() + kBlockSize);

    // 2. Clone A (A now mixes private and shared runs), write the clone.
    auto clone_a = files_->Clone(a_);
    if (!clone_a.ok()) return st;
    st.captures.push_back({*clone_a, st.a_model, /*writable=*/true});

    const auto block0 = Pattern(kBlockSize, 0x44);
    if (!files_->Write(*clone_a, 0, block0).ok()) {
      st.captures.back().expect.clear();  // clone content now unknown
      return st;
    }
    std::copy(block0.begin(), block0.end(), st.captures.back().expect.begin());

    // 3. Snapshot B, then truncate B under sharing (journaled release).
    auto snap_b = files_->Snapshot(b_);
    if (!snap_b.ok()) return st;
    st.captures.push_back({*snap_b, st.b_model, /*writable=*/false});

    if (!files_->Resize(b_, 2 * kBlockSize).ok()) {
      st.b_valid = false;
      return st;
    }
    st.b_model.resize(2 * kBlockSize);

    // 4. Delete the clone while it still shares runs with A and snap A.
    if (!files_->Delete(*clone_a).ok()) {
      st.captures[1].delete_unknown = true;
      return st;
    }
    st.captures[1].deleted = true;
    return st;
  }

  void CrashAndRestart() {
    Stable().SetFaultPlan(sim::DiskFaultPlan{});
    Main().SetFaultPlan(sim::DiskFaultPlan{});
    disks_->CrashAll();
    files_->Crash();
    ASSERT_TRUE(disks_->RecoverAll().ok());
    Restart();
  }

  std::vector<std::uint8_t> ReadAll(FileId id, std::size_t bytes) {
    std::vector<std::uint8_t> out(bytes);
    auto n = files_->Read(id, 0, out);
    EXPECT_TRUE(n.ok()) << "file " << id.value;
    if (n.ok()) out.resize(*n);
    return out;
  }

  void VerifyState(const RunState& st, const std::string& context) {
    if (st.a_valid) {
      EXPECT_EQ(ReadAll(a_, st.a_model.size()), st.a_model) << context;
    }
    if (st.b_valid) {
      EXPECT_EQ(ReadAll(b_, st.b_model.size()), st.b_model) << context;
    }
    for (const CaptureRecord& c : st.captures) {
      if (c.deleted) {
        std::vector<std::uint8_t> probe(kBlockSize);
        EXPECT_FALSE(files_->Read(c.id, 0, probe).ok())
            << context << ": deleted image " << c.id.value << " still reads";
        continue;
      }
      if (c.delete_unknown) continue;  // either outcome is all-or-nothing
      if (!c.expect.empty()) {
        EXPECT_EQ(ReadAll(c.id, c.expect.size()), c.expect)
            << context << ": image " << c.id.value;
      }
      if (!c.writable) {
        // Snapshot immutability survives the crash too.
        EXPECT_EQ(
            files_->Write(c.id, 0, Pattern(kBlockSize, 0x55)).code(),
            ErrorCode::kPermissionDenied)
            << context << ": snapshot " << c.id.value << " accepted a write";
      }
    }
    CheckFsck(st, context);
  }

  // fsck over every file the iteration knows is live. Non-exhaustive on
  // purpose: a capture whose commit record forced but whose ack was lost
  // is legitimately completed by recovery, and such an orphan image is a
  // live claimant this test cannot enumerate.
  void CheckFsck(const RunState& st, const std::string& context) {
    std::vector<FileId> ids{a_, b_};
    for (const CaptureRecord& c : st.captures) {
      if (!c.deleted && !c.delete_unknown) ids.push_back(c.id);
    }
    std::vector<ReservedRegion> reserved;
    SnapJournal& j = files_->snap_journal();
    if (j.loaded()) {
      reserved.push_back({j.RegionDisk(), j.RegionFirst(),
                          j.RegionFragments()});
    }
    const AuditReport report = file::AuditFiles(
        *files_, ids, std::span<const ReservedRegion>(reserved));
    EXPECT_TRUE(report.issues.empty())
        << context << ": " << report.issues.size() << " fsck issues, first: "
        << (report.issues.empty() ? "" : report.issues.front().detail);
  }

  SimClock clock_;
  std::unique_ptr<disk::DiskRegistry> disks_;
  std::unique_ptr<FileService> files_;
  FileId a_{};
  FileId b_{};
};

// --- the crash sweeps -------------------------------------------------------

TEST_F(SnapshotCrashTest, FaultFreeWorkloadEstablishesTheWorld) {
  BuildWorld();
  const RunState st = RunWorkload();
  ASSERT_EQ(st.captures.size(), 3u);
  EXPECT_TRUE(st.captures[1].deleted);
  VerifyState(st, "fault-free");
  // The storm actually exercised the machinery it claims to cover.
  EXPECT_GE(files_->stats().snapshots, 2u);
  EXPECT_GE(files_->stats().clones, 1u);
  EXPECT_GE(files_->stats().cow_splits, 2u);
  EXPECT_GE(files_->stats().shared_releases, 1u);
  EXPECT_GT(files_->SharedBlockCount(), 0u);
}

TEST_F(SnapshotCrashTest, StableCrashAtEveryWriteIsAllOrNothing) {
  BuildWorld();
  const std::uint64_t before = Stable().stats().write_references;
  RunWorkload();
  const std::uint64_t total = Stable().stats().write_references - before;
  ASSERT_GT(total, 0u);

  std::uint64_t redone = 0;
  for (std::uint64_t k = 0; k <= total; ++k) {
    SCOPED_TRACE("crash_after_stable_writes=" + std::to_string(k));
    BuildWorld(/*fault_seed=*/1000 + k);
    sim::DiskFaultPlan plan;
    plan.crash_after_writes = static_cast<std::int64_t>(k);
    Stable().SetFaultPlan(plan);
    const RunState st = RunWorkload();
    CrashAndRestart();
    // Recovery-time dones = journaled ops whose Done marker the crash ate
    // and the redo completed.
    redone += files_->snap_journal().stats().dones_logged;
    VerifyState(st, "stable k=" + std::to_string(k));
  }
  // The sweep must have hit the window between an op's commit force and
  // its Done marker — the redo path this matrix exists to prove.
  EXPECT_GT(redone, 0u);
}

TEST_F(SnapshotCrashTest, MainCrashAtEveryWriteIsAllOrNothing) {
  BuildWorld();
  const std::uint64_t before = Main().stats().write_references;
  RunWorkload();
  const std::uint64_t total = Main().stats().write_references - before;
  ASSERT_GT(total, 0u);

  for (std::uint64_t k = 0; k <= total; ++k) {
    SCOPED_TRACE("crash_after_main_writes=" + std::to_string(k));
    BuildWorld(/*fault_seed=*/2000 + k);
    sim::DiskFaultPlan plan;
    plan.crash_after_writes = static_cast<std::int64_t>(k);
    Main().SetFaultPlan(plan);
    const RunState st = RunWorkload();
    CrashAndRestart();
    VerifyState(st, "main k=" + std::to_string(k));
  }
}

// --- fsck refcount regressions ---------------------------------------------

class SnapshotFsckTest : public SnapshotCrashTest {
 protected:
  void SetUp() override {
    BuildWorld();
    auto snap = files_->Snapshot(a_);
    ASSERT_TRUE(snap.ok());
    snap_ = *snap;
    auto loc = files_->LocateBlock(a_, 0);
    ASSERT_TRUE(loc.ok());
    run_ = *loc;
  }

  AuditReport Audit(bool exhaustive = false) {
    const std::vector<FileId> ids{a_, b_, snap_};
    SnapJournal& j = files_->snap_journal();
    const std::vector<ReservedRegion> reserved{
        {j.RegionDisk(), j.RegionFirst(), j.RegionFragments()}};
    return file::AuditFiles(*files_, ids, reserved, exhaustive);
  }

  FileId snap_{};
  BlockLocation run_{};
};

TEST_F(SnapshotFsckTest, CleanSharedVolumeReportsSharingStats) {
  const AuditReport report = Audit(/*exhaustive=*/true);
  EXPECT_TRUE(report.clean())
      << report.issues.size() << " issues, first: "
      << (report.issues.empty() ? "" : report.issues.front().detail);
  EXPECT_EQ(report.shared_blocks, kFileBlocks);
  EXPECT_GE(report.refcounts_checked, kFileBlocks);
}

TEST_F(SnapshotFsckTest, StoredCountBelowClaimsIsRefcountLow) {
  // Corrupt downward: the stored count says "exclusive" while two files
  // claim the run — the next release would free blocks still in use.
  ASSERT_TRUE(files_
                  ->TestSetShareCount(run_.disk, run_.first_fragment,
                                      run_.contiguous_blocks, 1)
                  .ok());
  const AuditReport report = Audit();
  ASSERT_EQ(report.CountOf(AuditIssue::Kind::kRefcountLow), 1u);
  for (const AuditIssue& issue : report.issues) {
    ASSERT_EQ(issue.kind, AuditIssue::Kind::kRefcountLow);
    // The exact run is named: device, first fragment, and both counts.
    EXPECT_EQ(issue.disk, run_.disk);
    EXPECT_EQ(issue.fragment, run_.first_fragment);
    EXPECT_NE(issue.detail.find("2 claimed vs 1 stored"), std::string::npos)
        << issue.detail;
  }
}

TEST_F(SnapshotFsckTest, StoredCountAboveClaimsIsRefcountHigh) {
  // Corrupt upward: the stored count promises a third claimant that does
  // not exist — those blocks would never be freed (a leak). Only an
  // exhaustive audit may conclude this; a partial file list stays silent.
  ASSERT_TRUE(files_
                  ->TestSetShareCount(run_.disk, run_.first_fragment,
                                      run_.contiguous_blocks, 3)
                  .ok());
  EXPECT_TRUE(Audit(/*exhaustive=*/false).clean());
  const AuditReport report = Audit(/*exhaustive=*/true);
  ASSERT_EQ(report.CountOf(AuditIssue::Kind::kRefcountHigh), 1u);
  const AuditIssue& issue = report.issues.front();
  EXPECT_EQ(issue.disk, run_.disk);
  EXPECT_EQ(issue.fragment, run_.first_fragment);
  EXPECT_NE(issue.detail.find("2 claimed vs 3 stored"), std::string::npos)
      << issue.detail;
}

TEST_F(SnapshotFsckTest, SharedClaimWithoutFlagIsFlagMissing) {
  // Two unflagged claimants with a stored count that agrees: the refcounts
  // reconcile, but a write through either run would skip copy-on-write.
  auto c = files_->Create(ServiceType::kBasic, kBlockSize);
  auto d = files_->Create(ServiceType::kBasic, kBlockSize);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(files_->Write(*c, 0, Pattern(kBlockSize, 1)).ok());
  ASSERT_TRUE(files_->Write(*d, 0, Pattern(kBlockSize, 2)).ok());
  auto c_loc = files_->LocateBlock(*c, 0);
  ASSERT_TRUE(c_loc.ok());
  // Point d at c's block (ReplaceBlocks with share count 1 takes the legacy
  // unflagged path), then align the stored count with the two claimants.
  ASSERT_TRUE(
      files_->ReplaceBlocks(*d, {{0, c_loc->disk, c_loc->first_fragment}})
          .ok());
  ASSERT_TRUE(
      files_->TestSetShareCount(c_loc->disk, c_loc->first_fragment, 1, 2)
          .ok());
  const std::vector<FileId> ids{*c, *d};
  const AuditReport report = file::AuditFiles(*files_, ids);
  ASSERT_EQ(report.CountOf(AuditIssue::Kind::kSharedFlagMissing), 1u);
  EXPECT_EQ(report.issues.size(), 1u)
      << "second issue: " << report.issues.back().detail;
  EXPECT_EQ(report.issues.front().fragment, c_loc->first_fragment);
}

}  // namespace
}  // namespace rhodos::file
