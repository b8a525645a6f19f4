// Pins the on-disk bytes of every stable-region frame: the intention log's
// batch and record frames at two generations, its reset frame, the
// snapshot journal's op and done records and checkpoint slots, and the
// bitmap checksum. The golden digests were captured from the format as
// first written; a change to any of them is a change to the on-disk format
// and breaks recovery of existing regions.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/sim_clock.h"
#include "disk/bitmap.h"
#include "disk/disk_registry.h"
#include "disk/disk_server.h"
#include "file/snap_journal.h"
#include "txn/txn_log.h"

namespace rhodos {
namespace {

// Standard FNV-1a 64 over raw stable fragments: a digest for the goldens,
// independent of the checksum the frames carry.
std::uint64_t Digest(const sim::DiskModel& device, FragmentIndex first,
                     std::uint64_t count) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (FragmentIndex f = first; f < first + count; ++f) {
    for (std::uint8_t b : device.RawFragment(f)) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

disk::DiskServerConfig SmallConfig() {
  disk::DiskServerConfig c;
  c.geometry.total_fragments = 1024;
  c.geometry.fragments_per_track = 16;
  return c;
}

txn::IntentionRecord RangeRecord() {
  txn::IntentionRecord r;
  r.kind = txn::IntentionKind::kRedoRange;
  r.txn = TxnId{3};
  r.file = FileId{9};
  r.offset = 4100;
  for (int i = 0; i < 100; ++i) {
    r.data.push_back(static_cast<std::uint8_t>(i * 7));
  }
  return r;
}

txn::IntentionRecord CommitRecord() {
  txn::IntentionRecord r;
  r.kind = txn::IntentionKind::kStatus;
  r.txn = TxnId{3};
  r.status = txn::TxnStatus::kCommit;
  return r;
}

txn::TxnLog::BatchFramePayload TwoRecordBatch(std::uint32_t generation) {
  txn::TxnLog::BatchFramePayload batch;
  txn::AppendRecordFrame(batch.payload, RangeRecord(), generation);
  txn::AppendRecordFrame(batch.payload, CommitRecord(), generation);
  batch.records = 2;
  return batch;
}

class TxnLogGoldenTest : public ::testing::Test {
 protected:
  TxnLogGoldenTest() : server_(DiskId{0}, SmallConfig(), &clock_) {
    first_ = *server_.AllocateFragments(8);
  }

  std::uint64_t FirstFragmentDigest() {
    return Digest(server_.stable_device(), first_, 1);
  }

  SimClock clock_;
  disk::DiskServer server_;
  FragmentIndex first_ = 0;
};

TEST_F(TxnLogGoldenTest, TwoRecordBatchAtGenerationZero) {
  txn::TxnLog log(&server_, first_, 8);
  const auto batch = TwoRecordBatch(log.generation());
  ASSERT_TRUE(log.AppendFrames({&batch, 1}).ok());
  EXPECT_EQ(log.BytesUsed(), 256u);
  EXPECT_EQ(FirstFragmentDigest(), 0x82707f9c56038144ULL);
}

TEST_F(TxnLogGoldenTest, SameBatchAfterLazyResetIsGenerationOne) {
  txn::TxnLog log(&server_, first_, 8);
  const auto first_batch = TwoRecordBatch(log.generation());
  ASSERT_TRUE(log.AppendFrames({&first_batch, 1}).ok());
  log.ResetLazily();
  ASSERT_EQ(log.generation(), 1u);
  const auto batch = TwoRecordBatch(log.generation());
  ASSERT_TRUE(log.AppendFrames({&batch, 1}).ok());
  EXPECT_EQ(FirstFragmentDigest(), 0x5f66a5de167ff683ULL);
}

TEST_F(TxnLogGoldenTest, ForcedResetWritesAnEmptyFrameOfTheNewGeneration) {
  txn::TxnLog log(&server_, first_, 8);
  const auto batch = TwoRecordBatch(log.generation());
  ASSERT_TRUE(log.AppendFrames({&batch, 1}).ok());
  ASSERT_TRUE(log.Truncate().ok());
  // [u32 "TNLB"][u32 len 0][u32 records 0][u32 gen 1][u64 checksum], where
  // the checksum of no bytes is the offset basis XOR the generation.
  const std::vector<std::uint8_t> expected = {
      0x42, 0x4C, 0x4E, 0x54, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
      0x82, 0x03, 0x9D, 0x73, 0xB0, 0x0F, 0x65, 0x14};
  const auto raw = server_.stable_device().RawFragment(first_);
  EXPECT_EQ(std::vector<std::uint8_t>(raw.begin(), raw.begin() + 24),
            expected);
  EXPECT_EQ(FirstFragmentDigest(), 0x1623c264a8133887ULL);
}

class SnapJournalGoldenTest : public ::testing::Test {
 protected:
  SnapJournalGoldenTest() {
    disk::DiskServerConfig c;
    c.geometry.total_fragments = 2048;
    c.geometry.fragments_per_track = 32;
    disks_.AddDisk(c, &clock_);
  }

  const sim::DiskModel& Stable() {
    return (*disks_.Get(DiskId{0}))->stable_device();
  }

  static file::SnapOp CowSplit(std::uint32_t count) {
    file::SnapOp op;
    op.kind = file::SnapOpKind::kCowSplit;
    op.file = FileId{12};
    op.first_block = 2;
    op.block_count = 3;
    op.new_disk = DiskId{0};
    op.new_fragment = 640;
    op.ref_edits.push_back({DiskId{0}, 320, 3, count});
    op.frees.push_back({DiskId{0}, 96, 2});
    return op;
  }

  SimClock clock_;
  disk::DiskRegistry disks_;
};

TEST_F(SnapJournalGoldenTest, OpRecordAndItsDoneRecord) {
  file::SnapJournal journal(&disks_, 256, 0);
  ASSERT_TRUE(journal.Ensure().ok());
  file::SnapOp op = CowSplit(2);
  auto seq = journal.LogOp(op);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(journal.LogDone(*seq).ok());
  const FragmentIndex log_first = journal.RegionFirst() + 2 * (256 / 8);
  EXPECT_EQ(Digest(Stable(), log_first, 1), 0x940f0062fd4aa57aULL);
  // The fresh claim's checkpoint: slot A, an empty share map.
  EXPECT_EQ(Digest(Stable(), journal.RegionFirst(), 256 / 8),
            0x48fd13cc503e663dULL);
}

TEST_F(SnapJournalGoldenTest, CheckpointSlotHoldsTheShareMap) {
  // Two-fragment checkpoint slots and a twelve-fragment log: the log folds
  // into slot B after a few hundred op/done pairs.
  file::SnapJournal journal(&disks_, 16, 0);
  ASSERT_TRUE(journal.Ensure().ok());
  for (std::uint32_t i = 0; journal.stats().checkpoints < 2; ++i) {
    ASSERT_LT(i, 10000u);
    file::SnapOp op = CowSplit(2 + i % 3);
    auto seq = journal.LogOp(op);
    ASSERT_TRUE(seq.ok());
    ASSERT_TRUE(journal.LogDone(*seq).ok());
  }
  EXPECT_EQ(Digest(Stable(), journal.RegionFirst() + 2, 2),
            0xf916e327f9117734ULL);
  // The fold reset the log: its first fragment is zeros again.
  for (std::uint8_t b : Stable().RawFragment(journal.RegionFirst() + 4)) {
    ASSERT_EQ(b, 0);
  }
}

TEST(BitmapGoldenTest, ChecksumOfAFixedBitmap) {
  disk::Bitmap bm(1000);
  bm.AllocateRange(3, 70);
  bm.AllocateRange(500, 9);
  Serializer out;
  bm.SerializeTo(out);
  Deserializer in{{out.buffer().data() + out.size() - 8, 8}};
  EXPECT_EQ(in.U64(), 0x725f4e2b097bdd7cULL);
}

}  // namespace
}  // namespace rhodos
