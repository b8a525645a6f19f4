// Tests for the paper's "later stage" extensions implemented here:
//   * cross-level lock conflict detection (§6.1: "this constraint can be
//     relaxed, if required, at a later stage"),
//   * the usage-driven default locking level (§7: "it exploits the
//     knowledge of how frequently a file is used"),
// plus coverage for the wire protocol and the buffer pools.
#include <gtest/gtest.h>

#include "agent/fs_protocol.h"
#include "core/facility.h"
#include "txn/lock_manager.h"

namespace rhodos {
namespace {

using file::LockLevel;
using txn::DataItem;
using txn::LockManager;
using txn::LockMode;
using txn::TxnPhase;

const ProcessId kProc{1};

// --- cross-level locking --------------------------------------------------------

TEST(CrossLevelLockTest, FileLockBlocksRecordLockOnSameFile) {
  LockManager lm;
  ASSERT_TRUE(lm.TryLock(LockLevel::kFile, TxnId{1}, kProc,
                         TxnPhase::kLocking, DataItem::File(FileId{9}),
                         LockMode::kIWrite)
                  .ok());
  // A different transaction's record lock on the same file must conflict
  // even though it lives in a different level's table.
  EXPECT_FALSE(lm.TryLock(LockLevel::kRecord, TxnId{2}, kProc,
                          TxnPhase::kLocking,
                          DataItem::Record(FileId{9}, 0, 10),
                          LockMode::kIWrite)
                   .ok());
  // Another file is unaffected.
  EXPECT_TRUE(lm.TryLock(LockLevel::kRecord, TxnId{2}, kProc,
                         TxnPhase::kLocking,
                         DataItem::Record(FileId{10}, 0, 10),
                         LockMode::kIWrite)
                  .ok());
}

TEST(CrossLevelLockTest, RecordLockBlocksOverlappingPageLock) {
  LockManager lm;
  // Record [8100, 8200) lives inside page 0 boundary? kBlockSize=8192, so
  // bytes 8100..8200 straddle pages 0 and 1.
  ASSERT_TRUE(lm.TryLock(LockLevel::kRecord, TxnId{1}, kProc,
                         TxnPhase::kLocking,
                         DataItem::Record(FileId{3}, 8100, 100),
                         LockMode::kIWrite)
                  .ok());
  EXPECT_FALSE(lm.TryLock(LockLevel::kPage, TxnId{2}, kProc,
                          TxnPhase::kLocking, DataItem::Page(FileId{3}, 0),
                          LockMode::kIWrite)
                   .ok());
  EXPECT_FALSE(lm.TryLock(LockLevel::kPage, TxnId{2}, kProc,
                          TxnPhase::kLocking, DataItem::Page(FileId{3}, 1),
                          LockMode::kIWrite)
                   .ok());
  // Page 2 does not overlap the record.
  EXPECT_TRUE(lm.TryLock(LockLevel::kPage, TxnId{2}, kProc,
                         TxnPhase::kLocking, DataItem::Page(FileId{3}, 2),
                         LockMode::kIWrite)
                  .ok());
}

TEST(CrossLevelLockTest, CompatibleModesShareAcrossLevels) {
  LockManager lm;
  ASSERT_TRUE(lm.TryLock(LockLevel::kFile, TxnId{1}, kProc,
                         TxnPhase::kLocking, DataItem::File(FileId{4}),
                         LockMode::kReadOnly)
                  .ok());
  // RO at file level and RO at record level coexist (Table 1 applies
  // across levels too).
  EXPECT_TRUE(lm.TryLock(LockLevel::kRecord, TxnId{2}, kProc,
                         TxnPhase::kLocking,
                         DataItem::Record(FileId{4}, 0, 5),
                         LockMode::kReadOnly)
                  .ok());
}

TEST(CrossLevelLockTest, TimeoutBreaksCrossLevelHolder) {
  txn::LockTimeoutConfig cfg;
  cfg.lt = std::chrono::milliseconds(20);
  cfg.n = 2;
  LockManager lm(cfg);
  ASSERT_TRUE(lm.SetLock(LockLevel::kFile, TxnId{1}, kProc,
                         TxnPhase::kLocking, DataItem::File(FileId{5}),
                         LockMode::kIWrite)
                  .ok());
  // A record-level competitor breaks the stalled file-level holder.
  EXPECT_TRUE(lm.SetLock(LockLevel::kRecord, TxnId{2}, kProc,
                         TxnPhase::kLocking,
                         DataItem::Record(FileId{5}, 0, 1),
                         LockMode::kIWrite)
                  .ok());
  EXPECT_TRUE(lm.WasBroken(TxnId{1}));
}

// --- default locking level ---------------------------------------------------------

// The heuristic's thresholds: a file is hot from this many accesses on,
// and large from this many bytes on.
constexpr std::uint64_t kHotAccesses = 32;
constexpr std::uint64_t kLargeFileBytes = 1024 * 1024;

class DefaultLevelTest : public ::testing::Test {
 protected:
  DefaultLevelTest() : facility_(Config()) {}
  static core::FacilityConfig Config() {
    core::FacilityConfig c;
    c.geometry.total_fragments = 16 * 1024;
    return c;
  }
  core::DistributedFileFacility facility_;
};

TEST_F(DefaultLevelTest, ColdSmallFileDefaultsToPage) {
  auto file = facility_.files().Create(file::ServiceType::kTransaction, 0);
  ASSERT_TRUE(file.ok());
  auto level = facility_.transactions().SuggestLockLevel(*file);
  ASSERT_TRUE(level.ok());
  EXPECT_EQ(*level, LockLevel::kPage);
}

// Usage gathered by committed transactions heats a file, although a commit
// keeps the counter in memory like a close does: it stores no index table
// for soft attributes alone.
TEST_F(DefaultLevelTest, HotFileDefaultsToRecord) {
  file::FileService& files = facility_.files();
  txn::TransactionService& txns = facility_.transactions();
  std::vector<std::uint8_t> buf(16, 1);
  auto commit = [&](FileId id) {
    auto t = txns.Begin(kProc);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(txns.TRead(*t, id, 0, buf, txn::ReadIntent::kForUpdate).ok());
    ASSERT_TRUE(txns.TWrite(*t, id, 0, buf).ok());
    ASSERT_TRUE(txns.End(*t).ok());
  };
  auto count = [&files](FileId id) {
    auto attrs = files.GetAttributes(id);
    EXPECT_TRUE(attrs.ok());
    return attrs.ok() ? attrs->access_count : ~std::uint64_t{0};
  };
  auto suggest = [&txns](FileId id) {
    auto level = txns.SuggestLockLevel(id);
    EXPECT_TRUE(level.ok());
    return level.ok() ? *level : LockLevel::kFile;
  };

  auto t = txns.Begin(kProc);
  ASSERT_TRUE(t.ok());
  auto file = txns.TCreate(*t, LockLevel::kRecord, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(txns.TWrite(*t, *file, 0, buf).ok());
  ASSERT_TRUE(txns.End(*t).ok());
  EXPECT_EQ(suggest(*file), LockLevel::kPage);

  // Each in-place commit reads and writes the file: the count rises while
  // no table is stored, and the threshold flips the suggested level.
  const std::uint64_t stores = files.stats().fit_stores;
  std::uint64_t last = count(*file);
  while (last < kHotAccesses) {
    commit(*file);
    const std::uint64_t now = count(*file);
    ASSERT_GT(now, last);
    last = now;
  }
  EXPECT_EQ(files.stats().fit_stores, stores);
  EXPECT_EQ(suggest(*file), LockLevel::kRecord);

  // FlushAll persists the count; a crash afterwards keeps it.
  ASSERT_TRUE(files.FlushAll().ok());
  files.Crash();
  EXPECT_EQ(count(*file), last);
  EXPECT_EQ(suggest(*file), LockLevel::kRecord);

  // Counts gathered by later commits revert to the last stored value.
  commit(*file);
  EXPECT_GT(count(*file), last);
  files.Crash();
  EXPECT_EQ(count(*file), last);
}

TEST_F(DefaultLevelTest, LargeColdFileDefaultsToFile) {
  auto file = facility_.files().Create(file::ServiceType::kTransaction,
                                       kLargeFileBytes);
  ASSERT_TRUE(file.ok());
  std::vector<std::uint8_t> buf(kLargeFileBytes - 1, 1);
  ASSERT_TRUE(facility_.files().Write(*file, 0, buf).ok());  // one access
  auto level = facility_.transactions().SuggestLockLevel(*file);
  ASSERT_TRUE(level.ok());
  EXPECT_EQ(*level, LockLevel::kPage) << "one byte short of large";
  const std::vector<std::uint8_t> last_byte(1, 1);
  ASSERT_TRUE(
      facility_.files().Write(*file, kLargeFileBytes - 1, last_byte).ok());
  level = facility_.transactions().SuggestLockLevel(*file);
  ASSERT_TRUE(level.ok());
  EXPECT_EQ(*level, LockLevel::kFile);
}

TEST_F(DefaultLevelTest, ApplySetsTheAttribute) {
  auto file = facility_.files().Create(file::ServiceType::kTransaction, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(
      facility_.transactions().ApplyDefaultLockLevel(*file).ok());
  EXPECT_EQ(facility_.files().GetAttributes(*file)->locking_level,
            LockLevel::kPage);
}

TEST_F(DefaultLevelTest, AccessCountPersistsAcrossReload) {
  file::FileService& files = facility_.files();
  auto file = files.Create(file::ServiceType::kTransaction, 0);
  ASSERT_TRUE(file.ok());
  std::vector<std::uint8_t> buf(16, 1);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(files.Write(*file, 0, buf).ok());
  }
  ASSERT_TRUE(files.Flush(*file).ok());
  files.Crash();
  auto count = [&files](FileId id) {
    auto attrs = files.GetAttributes(id);
    EXPECT_TRUE(attrs.ok());
    return attrs.ok() ? attrs->access_count : ~std::uint64_t{0};
  };
  EXPECT_EQ(count(*file), 5u);

  // One access through a full open/read/close cycle. The close stores no
  // table for it; the count waits in memory for the next table load.
  auto read_once = [&files, &buf](FileId id) {
    ASSERT_TRUE(files.Open(id).ok());
    ASSERT_TRUE(files.Read(id, 0, buf).ok());
    ASSERT_TRUE(files.Close(id).ok());
  };
  read_once(*file);
  read_once(*file);
  EXPECT_EQ(count(*file), 7u);  // counting goes on across close -> reopen

  // An explicit FlushAll persists the count of a closed file.
  read_once(*file);
  ASSERT_TRUE(files.FlushAll().ok());
  files.Crash();
  EXPECT_EQ(count(*file), 8u);

  // A count nobody flushed reverts to the last stored value.
  read_once(*file);
  files.Crash();
  EXPECT_EQ(count(*file), 8u);

  // A deleted file's count dies with it, through the plain delete and
  // through the snapshot shared-release path alike: a file re-created at
  // the same index-table fragment starts from zero.
  for (const bool shared : {false, true}) {
    SCOPED_TRACE(shared ? "shared release" : "plain delete");
    auto victim = files.Create(file::ServiceType::kBasic, 0);
    ASSERT_TRUE(victim.ok());
    ASSERT_TRUE(files.Write(*victim, 0, buf).ok());
    if (shared) {
      ASSERT_TRUE(files.Snapshot(*victim).ok());
      ASSERT_TRUE(files.HasSharedRuns(*victim).value());
    }
    ASSERT_TRUE(files.Close(*victim).ok());
    read_once(*victim);
    ASSERT_TRUE(files.Delete(*victim).ok());
    auto again = files.Create(file::ServiceType::kBasic, 0);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(*again, *victim);
    EXPECT_EQ(count(*again), 0u);
  }
}

// --- wire protocol -----------------------------------------------------------------

TEST(FsProtocolTest, RequestRoundTrips) {
  {
    agent::CreateRequest r{42, file::ServiceType::kTransaction, 4096};
    auto back = agent::CreateRequest::Decode(r.Encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->token, 42u);
    EXPECT_EQ(back->type, file::ServiceType::kTransaction);
    EXPECT_EQ(back->size_hint, 4096u);
  }
  {
    agent::PwriteVecRequest r;
    r.extents.push_back(agent::PwriteExtent{FileId{7}, 100, {1, 2, 3}});
    r.extents.push_back(agent::PwriteExtent{FileId{9}, 8192, {}});
    r.cb = "agent-3-cb";
    auto back = agent::PwriteVecRequest::Decode(r.Encode());
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back->extents.size(), 2u);
    EXPECT_EQ(back->extents[0].file, FileId{7});
    EXPECT_EQ(back->extents[0].offset, 100u);
    EXPECT_EQ(back->extents[0].data, (std::vector<std::uint8_t>{1, 2, 3}));
    EXPECT_EQ(back->extents[1].file, FileId{9});
    EXPECT_EQ(back->extents[1].offset, 8192u);
    EXPECT_TRUE(back->extents[1].data.empty());
    EXPECT_EQ(back->cb, "agent-3-cb");
  }
  {
    agent::PreadRequest r{FileId{8}, 5, 10};
    auto back = agent::PreadRequest::Decode(r.Encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->length, 10u);
  }
  {
    agent::ResizeRequest r{9, FileId{1}, 777};
    auto back = agent::ResizeRequest::Decode(r.Encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->size, 777u);
  }
}

TEST(FsProtocolTest, TruncatedRequestRejected) {
  agent::PwriteVecRequest r;
  r.extents.push_back(agent::PwriteExtent{FileId{7}, 100, {1, 2, 3}});
  const auto bytes = r.Encode();
  // Every proper prefix of the encoding is refused, not half-decoded.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(agent::PwriteVecRequest::Decode({bytes.data(), len}).ok())
        << "prefix of " << len << " bytes";
  }
  // So is a batch whose extent count claims more extents than it carries.
  auto inflated = bytes;
  inflated[0] = 2;
  EXPECT_FALSE(agent::PwriteVecRequest::Decode(inflated).ok());
}

TEST(FsProtocolTest, StatusRoundTrips) {
  Serializer out;
  agent::EncodeStatus(out, Status{ErrorCode::kNoSpace, "disk full"});
  Deserializer in{out.buffer()};
  const Status st = agent::DecodeStatus(in);
  EXPECT_EQ(st.code(), ErrorCode::kNoSpace);
  EXPECT_EQ(st.error().message, "disk full");
}

TEST(FsProtocolTest, AttributesRoundTripIncludesAccessCount) {
  file::FileAttributes a;
  a.size = 123;
  a.access_count = 456;
  a.locking_level = file::LockLevel::kRecord;
  Serializer out;
  agent::EncodeAttributes(out, a);
  Deserializer in{out.buffer()};
  EXPECT_EQ(agent::DecodeAttributes(in), a);
}

}  // namespace
}  // namespace rhodos
