// Tests for the snapshot journal's stable log: an op whose force failed
// was never committed, so no later force and no restart may bring it back.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/sim_clock.h"
#include "disk/disk_registry.h"
#include "file/snap_journal.h"

namespace rhodos::file {
namespace {

// One disk whose tail holds a 256-fragment journal region.
struct OneDisk {
  OneDisk() {
    disk::DiskServerConfig c;
    c.geometry.total_fragments = 2048;
    c.geometry.fragments_per_track = 32;
    disks.AddDisk(c, &clock);
  }

  void SetPartitioned(bool partitioned) {
    (*disks.Get(DiskId{0}))->SetPartitioned(partitioned);
  }

  SimClock clock;
  disk::DiskRegistry disks;
};

SnapOp Release(FileId file, std::uint32_t edits = 1) {
  SnapOp op;
  op.kind = SnapOpKind::kRelease;
  op.file = file;
  for (std::uint32_t i = 0; i < edits; ++i) {
    op.ref_edits.push_back({DiskId{0}, 320 + 4 * i, 1, 2});
  }
  return op;
}

// Logs op A with the disk partitioned (the force fails), then the shorter
// op B, then restarts the journal: only B committed, so recovery must redo
// only B.
void ExpectOnlyTheCommittedOpPending(OneDisk& disk, SnapJournal& journal) {
  disk.SetPartitioned(true);
  SnapOp a = Release(FileId{1}, 3);
  EXPECT_FALSE(journal.LogOp(a).ok());
  disk.SetPartitioned(false);
  SnapOp b = Release(FileId{2});
  ASSERT_TRUE(journal.LogOp(b).ok());

  journal.Reset();
  ASSERT_TRUE(journal.Ensure().ok());
  std::vector<std::uint64_t> pending;
  for (const SnapOp& op : journal.TakePending()) {
    pending.push_back(op.file.value);
  }
  EXPECT_EQ(pending, std::vector<std::uint64_t>{2});
}

TEST(SnapJournalTest, FailedForceDoesNotComeBackAfterRestart) {
  OneDisk disk;
  SnapJournal journal(&disk.disks, 256, 0);
  ASSERT_TRUE(journal.Ensure().ok());
  // B's force rewrites the fragment A was staged in.
  ExpectOnlyTheCommittedOpPending(disk, journal);
  // B's frame opens the log, and nothing of the longer A is left after it.
  Serializer b;
  b.U8(1);
  SnapOp op = Release(FileId{2});
  op.seq = 2;
  SerializeSnapOp(b, op);
  const FragmentIndex log_first = journal.RegionFirst() + 2 * (256 / 8);
  const auto raw =
      (*disk.disks.Get(DiskId{0}))->stable_device().RawFragment(log_first);
  EXPECT_NE(raw[0], 0);
  EXPECT_TRUE(std::all_of(raw.begin() + 16 + b.size(), raw.end(),
                          [](std::uint8_t x) { return x == 0; }));
}

TEST(SnapJournalTest, FailedForceLeavesNoGapAtAnyHeadOffset) {
  // Sweeps the head across the log's first fragment boundary, so the
  // failed frame sometimes shares B's fragment and sometimes straddles
  // two: a straddling frame left staged would put a gap on stable storage
  // that ends the replay before B.
  for (std::uint64_t committed = 0; committed < 40; ++committed) {
    SCOPED_TRACE(committed);
    OneDisk disk;
    SnapJournal journal(&disk.disks, 256, 0);
    ASSERT_TRUE(journal.Ensure().ok());
    for (std::uint64_t i = 0; i < committed; ++i) {
      SnapOp op = Release(FileId{100 + i});
      auto seq = journal.LogOp(op);
      ASSERT_TRUE(seq.ok());
      ASSERT_TRUE(journal.LogDone(*seq).ok());
    }
    ExpectOnlyTheCommittedOpPending(disk, journal);
  }
}

}  // namespace
}  // namespace rhodos::file
