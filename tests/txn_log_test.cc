// Tests for the stable-storage intention log (paper §6.6–§6.7).
#include <gtest/gtest.h>

#include "common/sim_clock.h"
#include "disk/disk_server.h"
#include "txn/txn_log.h"

namespace rhodos::txn {
namespace {

disk::DiskServerConfig SmallConfig() {
  disk::DiskServerConfig c;
  c.geometry.total_fragments = 1024;
  c.geometry.fragments_per_track = 16;
  return c;
}

class TxnLogTest : public ::testing::Test {
 protected:
  TxnLogTest() : server_(DiskId{0}, SmallConfig(), &clock_) {
    first_ = *server_.AllocateFragments(64);
  }

  IntentionRecord Page(std::uint64_t txn, std::uint64_t block,
                       std::uint8_t fill) {
    IntentionRecord r;
    r.kind = IntentionKind::kRedoPage;
    r.txn = TxnId{txn};
    r.file = FileId{5};
    r.block_index = block;
    r.data.assign(kBlockSize, fill);
    return r;
  }

  SimClock clock_;
  disk::DiskServer server_;
  FragmentIndex first_ = 0;
};

TEST_F(TxnLogTest, AppendScanRoundTrip) {
  TxnLog log(&server_, first_, 64);
  ASSERT_TRUE(log.Append(Page(1, 0, 0xAA)).ok());
  IntentionRecord status;
  status.kind = IntentionKind::kStatus;
  status.txn = TxnId{1};
  status.status = TxnStatus::kCommit;
  ASSERT_TRUE(log.Append(status).ok());

  std::vector<IntentionRecord> seen;
  ASSERT_TRUE(log.Scan([&](const IntentionRecord& r) {
    seen.push_back(r);
  }).ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].kind, IntentionKind::kRedoPage);
  EXPECT_EQ(seen[0].txn.value, 1u);
  EXPECT_EQ(seen[0].block_index, 0u);
  EXPECT_EQ(seen[0].data.size(), kBlockSize);
  EXPECT_EQ(seen[0].data[100], 0xAA);
  EXPECT_EQ(seen[1].kind, IntentionKind::kStatus);
  EXPECT_EQ(seen[1].status, TxnStatus::kCommit);
}

TEST_F(TxnLogTest, RecordsSurviveOnStableStorageOnly) {
  TxnLog log(&server_, first_, 64);
  ASSERT_TRUE(log.Append(Page(1, 0, 0xBB)).ok());
  // The MAIN platter at the log region is untouched: the intentions list
  // lives exclusively on stable storage.
  EXPECT_EQ(server_.main_device().RawFragment(first_)[0], 0);
  EXPECT_NE(server_.stable_device().RawFragment(first_)[0], 0);
}

TEST_F(TxnLogTest, ScanSurvivesServerCrash) {
  TxnLog log(&server_, first_, 64);
  ASSERT_TRUE(log.Append(Page(7, 3, 0x11)).ok());
  server_.Crash();
  ASSERT_TRUE(server_.Recover().ok());
  // A fresh log object at the same region sees the records (recovery path).
  TxnLog after(&server_, first_, 64);
  int count = 0;
  ASSERT_TRUE(after.Scan([&](const IntentionRecord& r) {
    ++count;
    EXPECT_EQ(r.txn.value, 7u);
  }).ok());
  EXPECT_EQ(count, 1);
}

TEST_F(TxnLogTest, AppendsContinueAfterScan) {
  TxnLog log(&server_, first_, 64);
  ASSERT_TRUE(log.Append(Page(1, 0, 1)).ok());
  TxnLog reopened(&server_, first_, 64);
  ASSERT_TRUE(reopened.Scan([](const IntentionRecord&) {}).ok());
  ASSERT_TRUE(reopened.Append(Page(2, 1, 2)).ok());
  int count = 0;
  ASSERT_TRUE(reopened.Scan([&](const IntentionRecord&) { ++count; }).ok());
  EXPECT_EQ(count, 2);
}

TEST_F(TxnLogTest, TornTailIsIgnored) {
  TxnLog log(&server_, first_, 64);
  ASSERT_TRUE(log.Append(Page(1, 0, 1)).ok());
  const std::uint64_t good_head = log.BytesUsed();
  ASSERT_TRUE(log.Append(Page(2, 1, 2)).ok());
  // Corrupt the second record's payload on stable storage (torn write).
  const FragmentIndex frag = first_ + good_head / kFragmentSize;
  std::vector<std::uint8_t> raw(
      server_.stable_device().RawFragment(frag).begin(),
      server_.stable_device().RawFragment(frag).end());
  raw[(good_head % kFragmentSize) + 20] ^= 0xFF;
  server_.stable_device().RawOverwrite(frag, raw);

  TxnLog reopened(&server_, first_, 64);
  std::vector<std::uint64_t> txns;
  ASSERT_TRUE(reopened.Scan([&](const IntentionRecord& r) {
    txns.push_back(r.txn.value);
  }).ok());
  ASSERT_EQ(txns.size(), 1u);  // only the intact first record
  EXPECT_EQ(txns[0], 1u);
  EXPECT_GE(reopened.stats().torn_records_skipped, 1u);
}

TEST_F(TxnLogTest, TruncateEmptiesTheLog) {
  TxnLog log(&server_, first_, 64);
  ASSERT_TRUE(log.Append(Page(1, 0, 1)).ok());
  ASSERT_TRUE(log.Truncate().ok());
  EXPECT_EQ(log.BytesUsed(), 0u);
  TxnLog reopened(&server_, first_, 64);
  int count = 0;
  ASSERT_TRUE(reopened.Scan([&](const IntentionRecord&) { ++count; }).ok());
  EXPECT_EQ(count, 0);
}

// --- log generations: the reset is lazy, stale frames are never trusted ---

IntentionRecord Range(std::uint64_t txn, std::size_t bytes, std::uint8_t fill) {
  IntentionRecord r;
  r.kind = IntentionKind::kRedoRange;
  r.txn = TxnId{txn};
  r.file = FileId{5};
  r.data.assign(bytes, fill);
  return r;
}

std::vector<std::uint64_t> ReplayedTxns(disk::DiskServer* server,
                                        FragmentIndex first) {
  TxnLog reopened(server, first, 64);
  std::vector<std::uint64_t> txns;
  EXPECT_TRUE(reopened.Scan([&](const IntentionRecord& r) {
    txns.push_back(r.txn.value);
  }).ok());
  return txns;
}

// A force whose last fragment has less room left than its largest frame
// fills the rest with a padding frame, so the next force writes only the
// fragments its own frames need; the scan steps over the padding. A
// force with room to spare pads nothing.
TEST_F(TxnLogTest, PaddingStartsTheNextForceOnAFreshFragment) {
  TxnLog log(&server_, first_, 64);
  ASSERT_TRUE(log.Append(Range(1, 1800, 1)).ok());
  EXPECT_EQ(log.BytesUsed(), kFragmentSize);
  const std::uint64_t written = server_.stable_stats().fragments_written;
  ASSERT_TRUE(log.Append(Range(2, 100, 2)).ok());
  EXPECT_EQ(server_.stable_stats().fragments_written, written + 1);
  const std::uint64_t head = log.BytesUsed();
  ASSERT_TRUE(log.Append(Range(3, 100, 3)).ok());
  EXPECT_EQ(log.BytesUsed(), head + (head - kFragmentSize));

  EXPECT_EQ(ReplayedTxns(&server_, first_),
            (std::vector<std::uint64_t>{1, 2, 3}));
  auto audit = log.Audit();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->clean());
  EXPECT_EQ(audit->batches, 3u);
  EXPECT_EQ(audit->records, 3u);
  // Appends after a scan continue past the padding, not over it.
  TxnLog reopened(&server_, first_, 64);
  ASSERT_TRUE(reopened.Scan([](const IntentionRecord&) {}).ok());
  EXPECT_EQ(reopened.BytesUsed(), log.BytesUsed());
}

TEST_F(TxnLogTest, LazyResetWritesNothingUntilTheNextForce) {
  TxnLog log(&server_, first_, 64);
  ASSERT_TRUE(log.Append(Page(1, 0, 1)).ok());
  const std::uint64_t writes = server_.stable_stats().write_references;
  log.ResetLazily();
  EXPECT_TRUE(log.reset_pending());
  EXPECT_EQ(log.BytesUsed(), 0u);
  EXPECT_EQ(server_.stable_stats().write_references, writes);
  // Still durable: a crash now would replay the old generation.
  EXPECT_EQ(ReplayedTxns(&server_, first_), std::vector<std::uint64_t>{1});

  // The next force lands at offset 0 under the new generation and carries
  // the reset: one stable write, no reset write of its own.
  ASSERT_TRUE(log.Append(Page(2, 1, 2)).ok());
  EXPECT_FALSE(log.reset_pending());
  EXPECT_EQ(server_.stable_stats().write_references, writes + 1);
  EXPECT_EQ(log.stats().reset_writes, 0u);
  EXPECT_EQ(ReplayedTxns(&server_, first_), std::vector<std::uint64_t>{2});
}

TEST_F(TxnLogTest, ForceResetWritesOnceAndScanAdoptsTheGeneration) {
  TxnLog log(&server_, first_, 64);
  ASSERT_TRUE(log.Append(Page(1, 0, 1)).ok());
  log.ResetLazily();
  ASSERT_TRUE(log.ForceReset().ok());
  ASSERT_TRUE(log.ForceReset().ok());  // nothing pending: no second write
  EXPECT_EQ(log.stats().reset_writes, 1u);
  EXPECT_FALSE(log.reset_pending());
  // Nothing was forced since: a further quiescent reset has nothing to do.
  log.ResetLazily();
  EXPECT_FALSE(log.reset_pending());

  TxnLog reopened(&server_, first_, 64);
  int count = 0;
  ASSERT_TRUE(reopened.Scan([&](const IntentionRecord&) { ++count; }).ok());
  EXPECT_EQ(count, 0);
  EXPECT_EQ(reopened.generation(), log.generation());
  EXPECT_NE(reopened.generation(), 0u);
}

TEST_F(TxnLogTest, TornForceNeverSalvagesAnEarlierGenerationsRecords) {
  // Generation G holds three records; generation G+1 forces three records
  // of the same sizes, so every record frame starts where one of G's did.
  auto batch = [](std::uint64_t first_txn, std::uint32_t generation) {
    TxnLog::BatchFramePayload frame;
    for (std::uint64_t i = 0; i < 3; ++i) {
      AppendRecordFrame(frame.payload,
                        Range(first_txn + i, 100,
                              static_cast<std::uint8_t>(first_txn + i)),
                        generation);
      ++frame.records;
    }
    return frame;
  };
  TxnLog log(&server_, first_, 64);
  const TxnLog::BatchFramePayload old_batch = batch(1, log.generation());
  ASSERT_TRUE(log.AppendFrames({&old_batch, 1}).ok());
  const auto old_image = server_.stable_device().RawFragment(first_);
  const std::vector<std::uint8_t> old_bytes(old_image.begin(),
                                            old_image.end());

  log.ResetLazily();
  const TxnLog::BatchFramePayload new_batch = batch(11, log.generation());
  ASSERT_TRUE(log.AppendFrames({&new_batch, 1}).ok());

  // Tear the new force right after its first record: the rest of the
  // fragment still holds generation G's second and third records, each
  // a well-formed frame at a record boundary of the new batch.
  const std::size_t record_frame = new_batch.payload.size() / 3;
  const std::size_t tear = 16 + record_frame;
  const auto new_image = server_.stable_device().RawFragment(first_);
  std::vector<std::uint8_t> torn(new_image.begin(), new_image.end());
  std::copy(old_bytes.begin() + static_cast<std::ptrdiff_t>(tear),
            old_bytes.end(), torn.begin() + static_cast<std::ptrdiff_t>(tear));
  server_.stable_device().RawOverwrite(first_, torn);

  TxnLog reopened(&server_, first_, 64);
  std::vector<std::uint64_t> txns;
  ASSERT_TRUE(reopened.Scan([&](const IntentionRecord& r) {
    txns.push_back(r.txn.value);
  }).ok());
  EXPECT_EQ(txns, std::vector<std::uint64_t>{11});
  EXPECT_EQ(reopened.stats().torn_batches, 1u);
  EXPECT_EQ(reopened.stats().salvaged_records, 1u);
}

TEST_F(TxnLogTest, AfterResetRestartAndAppendOnlyNewRecordsReplay) {
  // Generation G: record 1 spills into the second fragment, and record 2
  // starts there. The eager reset rewrites only the first fragment.
  TxnLog log(&server_, first_, 64);
  constexpr std::size_t kBig = 3000;
  ASSERT_TRUE(log.Append(Range(1, kBig, 1)).ok());
  ASSERT_GT(log.BytesUsed(), kFragmentSize);
  ASSERT_TRUE(log.Append(Range(2, 16, 2)).ok());
  ASSERT_TRUE(log.Truncate().ok());

  // Restart: the scan finds the empty frame and adopts its generation.
  TxnLog restarted(&server_, first_, 64);
  int count = 0;
  ASSERT_TRUE(restarted.Scan([&](const IntentionRecord&) { ++count; }).ok());
  EXPECT_EQ(count, 0);
  EXPECT_EQ(restarted.generation(), log.generation());
  // Record 3 follows the 24-byte empty frame and is 24 bytes shorter than
  // record 1, so it ends exactly where generation G's record 2 begins.
  ASSERT_TRUE(restarted.Append(Range(3, kBig - TxnLog::kBatchOverhead, 3))
                  .ok());

  EXPECT_EQ(ReplayedTxns(&server_, first_), std::vector<std::uint64_t>{3});
}

TEST_F(TxnLogTest, FullLogRefusesAppends) {
  TxnLog log(&server_, first_, 2);  // tiny: 4 KiB region
  ASSERT_TRUE(log.Append(Page(1, 0, 1)).code() == ErrorCode::kNoSpace ||
              true);  // an 8 KiB page cannot fit a 4 KiB region
  EXPECT_EQ(log.Append(Page(1, 0, 1)).code(), ErrorCode::kNoSpace);
}

TEST_F(TxnLogTest, IntentionSerializationRoundTrip) {
  IntentionRecord r;
  r.kind = IntentionKind::kShadowMap;
  r.txn = TxnId{42};
  r.file = FileId{777};
  r.block_index = 13;
  r.offset = 99999;
  r.new_disk = DiskId{3};
  r.new_fragment = 4040;
  r.status = TxnStatus::kTentative;
  Serializer out;
  SerializeIntention(out, r);
  Deserializer in{out.buffer()};
  auto back = DeserializeIntention(in);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->kind, r.kind);
  EXPECT_EQ(back->txn, r.txn);
  EXPECT_EQ(back->file, r.file);
  EXPECT_EQ(back->block_index, r.block_index);
  EXPECT_EQ(back->offset, r.offset);
  EXPECT_EQ(back->new_disk, r.new_disk);
  EXPECT_EQ(back->new_fragment, r.new_fragment);
}

}  // namespace
}  // namespace rhodos::txn
