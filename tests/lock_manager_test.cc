// Tests for the 2PL lock manager (paper §6.2–§6.5): the full Table 1
// compatibility matrix, the IR->IW conversion, FIFO wait queues, the
// separate per-level tables, and the LT / N*LT timeout deadlock rule.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "txn/lock_manager.h"

namespace rhodos::txn {
namespace {

using namespace std::chrono_literals;

const DataItem kItem = DataItem::Page(FileId{1}, 0);
const TxnId kT1{1}, kT2{2}, kT3{3};
const ProcessId kP{9};

LockTimeoutConfig FastTimeouts() {
  LockTimeoutConfig c;
  c.lt = 30ms;
  c.n = 3;
  return c;
}

// --- Table 1: the compatibility matrix, parameterized ------------------------

struct CompatCase {
  LockMode held;
  LockMode requested;
  bool granted;  // immediately, to a DIFFERENT transaction
};

class LockCompatibilityTest : public ::testing::TestWithParam<CompatCase> {};

TEST_P(LockCompatibilityTest, MatrixEntry) {
  const CompatCase c = GetParam();
  LockManager lm;
  ASSERT_TRUE(lm.TryLock(LockLevel::kPage, kT1, kP, TxnPhase::kLocking,
                         kItem, c.held)
                  .ok());
  const Status got = lm.TryLock(LockLevel::kPage, kT2, kP,
                                TxnPhase::kLocking, kItem, c.requested);
  EXPECT_EQ(got.ok(), c.granted)
      << LockModeName(c.held) << " held, " << LockModeName(c.requested)
      << " requested";
}

INSTANTIATE_TEST_SUITE_P(
    Table1, LockCompatibilityTest,
    ::testing::Values(
        // held RO row: RO ok, IR ok, IW wait.
        CompatCase{LockMode::kReadOnly, LockMode::kReadOnly, true},
        CompatCase{LockMode::kReadOnly, LockMode::kIRead, true},
        CompatCase{LockMode::kReadOnly, LockMode::kIWrite, false},
        // held IR row: everything waits (no new RO after an IR; IRs are
        // never shared; IW only via same-transaction conversion).
        CompatCase{LockMode::kIRead, LockMode::kReadOnly, false},
        CompatCase{LockMode::kIRead, LockMode::kIRead, false},
        CompatCase{LockMode::kIRead, LockMode::kIWrite, false},
        // held IW row: exclusive.
        CompatCase{LockMode::kIWrite, LockMode::kReadOnly, false},
        CompatCase{LockMode::kIWrite, LockMode::kIRead, false},
        CompatCase{LockMode::kIWrite, LockMode::kIWrite, false}),
    [](const ::testing::TestParamInfo<CompatCase>& info) {
      return std::string(LockModeName(info.param.held)) + "_then_" +
             std::string(LockModeName(info.param.requested));
    });

TEST(LockManagerTest, FreeItemGrantsAnyMode) {
  for (LockMode m :
       {LockMode::kReadOnly, LockMode::kIRead, LockMode::kIWrite}) {
    LockManager lm;
    EXPECT_TRUE(lm.TryLock(LockLevel::kPage, kT1, kP, TxnPhase::kLocking,
                           kItem, m)
                    .ok());
  }
}

TEST(LockManagerTest, RoSharedByManyPlusOneIr) {
  LockManager lm;
  ASSERT_TRUE(lm.TryLock(LockLevel::kPage, kT1, kP, TxnPhase::kLocking,
                         kItem, LockMode::kReadOnly)
                  .ok());
  ASSERT_TRUE(lm.TryLock(LockLevel::kPage, kT2, kP, TxnPhase::kLocking,
                         kItem, LockMode::kReadOnly)
                  .ok());
  // One IR can join the readers...
  ASSERT_TRUE(lm.TryLock(LockLevel::kPage, kT3, kP, TxnPhase::kLocking,
                         kItem, LockMode::kIRead)
                  .ok());
  // ...but afterwards no NEW read-only lock may be set (§6.3).
  EXPECT_FALSE(lm.TryLock(LockLevel::kPage, TxnId{4}, kP,
                          TxnPhase::kLocking, kItem, LockMode::kReadOnly)
                   .ok());
}

TEST(LockManagerTest, IrToIwConversionBySameTxn) {
  LockManager lm;
  ASSERT_TRUE(lm.TryLock(LockLevel::kPage, kT1, kP, TxnPhase::kLocking,
                         kItem, LockMode::kIRead)
                  .ok());
  // The same transaction converts its IR to IW.
  ASSERT_TRUE(lm.TryLock(LockLevel::kPage, kT1, kP, TxnPhase::kLocking,
                         kItem, LockMode::kIWrite)
                  .ok());
  EXPECT_GE(lm.stats().grants, 2u);
  // The record was upgraded, not duplicated.
  auto rec = lm.GetLockRecord(LockLevel::kPage, kT1, kItem);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->mode, LockMode::kIWrite);
  EXPECT_EQ(lm.RecordCount(LockLevel::kPage), 1u);
}

TEST(LockManagerTest, ConversionBlockedWhileReadersRemain) {
  LockManager lm;
  ASSERT_TRUE(lm.TryLock(LockLevel::kPage, kT1, kP, TxnPhase::kLocking,
                         kItem, LockMode::kReadOnly)
                  .ok());
  ASSERT_TRUE(lm.TryLock(LockLevel::kPage, kT2, kP, TxnPhase::kLocking,
                         kItem, LockMode::kIRead)
                  .ok());
  // T2 cannot convert while T1's RO is still on the item.
  EXPECT_FALSE(lm.TryLock(LockLevel::kPage, kT2, kP, TxnPhase::kLocking,
                          kItem, LockMode::kIWrite)
                   .ok());
  ASSERT_TRUE(lm.Unlock(LockLevel::kPage, kT1, kItem).ok());
  EXPECT_TRUE(lm.TryLock(LockLevel::kPage, kT2, kP, TxnPhase::kLocking,
                         kItem, LockMode::kIWrite)
                  .ok());
}

TEST(LockManagerTest, ReRequestOfHeldModeIsNoop) {
  LockManager lm;
  ASSERT_TRUE(lm.TryLock(LockLevel::kPage, kT1, kP, TxnPhase::kLocking,
                         kItem, LockMode::kIWrite)
                  .ok());
  ASSERT_TRUE(lm.TryLock(LockLevel::kPage, kT1, kP, TxnPhase::kLocking,
                         kItem, LockMode::kReadOnly)
                  .ok());  // weaker re-request
  EXPECT_EQ(lm.RecordCount(LockLevel::kPage), 1u);
}

TEST(LockManagerTest, DifferentItemsDoNotConflict) {
  LockManager lm;
  ASSERT_TRUE(lm.TryLock(LockLevel::kPage, kT1, kP, TxnPhase::kLocking,
                         DataItem::Page(FileId{1}, 0), LockMode::kIWrite)
                  .ok());
  EXPECT_TRUE(lm.TryLock(LockLevel::kPage, kT2, kP, TxnPhase::kLocking,
                         DataItem::Page(FileId{1}, 1), LockMode::kIWrite)
                  .ok());
  EXPECT_TRUE(lm.TryLock(LockLevel::kPage, kT3, kP, TxnPhase::kLocking,
                         DataItem::Page(FileId{2}, 0), LockMode::kIWrite)
                  .ok());
}

TEST(LockManagerTest, RecordRangesConflictOnlyWhenOverlapping) {
  LockManager lm;
  ASSERT_TRUE(lm.TryLock(LockLevel::kRecord, kT1, kP, TxnPhase::kLocking,
                         DataItem::Record(FileId{1}, 0, 100),
                         LockMode::kIWrite)
                  .ok());
  // Disjoint range: fine.
  EXPECT_TRUE(lm.TryLock(LockLevel::kRecord, kT2, kP, TxnPhase::kLocking,
                         DataItem::Record(FileId{1}, 100, 50),
                         LockMode::kIWrite)
                  .ok());
  // Overlapping range: conflict.
  EXPECT_FALSE(lm.TryLock(LockLevel::kRecord, kT3, kP, TxnPhase::kLocking,
                          DataItem::Record(FileId{1}, 99, 2),
                          LockMode::kIWrite)
                   .ok());
}

TEST(LockManagerTest, FileLockCoversEveryPage) {
  LockManager lm;
  ASSERT_TRUE(lm.TryLock(LockLevel::kFile, kT1, kP, TxnPhase::kLocking,
                         DataItem::File(FileId{1}), LockMode::kIWrite)
                  .ok());
  EXPECT_FALSE(lm.TryLock(LockLevel::kFile, kT2, kP, TxnPhase::kLocking,
                          DataItem::File(FileId{1}), LockMode::kReadOnly)
                   .ok());
}

TEST(LockManagerTest, SeparateTablesPerLevel) {
  // "For each level of locking, a file server maintains a separate lock
  // table" — records at one level do not appear in another's table.
  LockManager lm;
  ASSERT_TRUE(lm.TryLock(LockLevel::kPage, kT1, kP, TxnPhase::kLocking,
                         kItem, LockMode::kIWrite)
                  .ok());
  EXPECT_EQ(lm.RecordCount(LockLevel::kPage), 1u);
  EXPECT_EQ(lm.RecordCount(LockLevel::kRecord), 0u);
  EXPECT_EQ(lm.RecordCount(LockLevel::kFile), 0u);
}

TEST(LockManagerTest, GetLockRecordExposesPaperFields) {
  LockManager lm;
  ASSERT_TRUE(lm.TryLock(LockLevel::kPage, kT1, ProcessId{77},
                         TxnPhase::kLocking, kItem, LockMode::kIRead)
                  .ok());
  auto rec = lm.GetLockRecord(LockLevel::kPage, kT1, kItem);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->process.value, 77u);
  EXPECT_EQ(rec->txn, kT1);
  EXPECT_EQ(rec->phase, TxnPhase::kLocking);
  EXPECT_EQ(rec->mode, LockMode::kIRead);
  EXPECT_TRUE(rec->granted);
  EXPECT_EQ(rec->retry_count, 0u);
  EXPECT_EQ(rec->item, kItem);
}

TEST(LockManagerTest, UnlockReleasesAndUnknownUnlockFails) {
  LockManager lm;
  ASSERT_TRUE(lm.TryLock(LockLevel::kPage, kT1, kP, TxnPhase::kLocking,
                         kItem, LockMode::kIWrite)
                  .ok());
  ASSERT_TRUE(lm.Unlock(LockLevel::kPage, kT1, kItem).ok());
  EXPECT_EQ(lm.Unlock(LockLevel::kPage, kT1, kItem).code(),
            ErrorCode::kNotLocked);
  EXPECT_TRUE(lm.TryLock(LockLevel::kPage, kT2, kP, TxnPhase::kLocking,
                         kItem, LockMode::kIWrite)
                  .ok());
}

TEST(LockManagerTest, ReleaseAllFreesEverything) {
  LockManager lm;
  for (std::uint64_t p = 0; p < 5; ++p) {
    ASSERT_TRUE(lm.TryLock(LockLevel::kPage, kT1, kP, TxnPhase::kLocking,
                           DataItem::Page(FileId{1}, p), LockMode::kIWrite)
                    .ok());
  }
  lm.ReleaseAll(kT1);
  EXPECT_EQ(lm.RecordCount(LockLevel::kPage), 0u);
}

// --- blocking behaviour and the timeout rule -----------------------------------

TEST(LockManagerTest, SetLockBlocksUntilRelease) {
  LockManager lm(FastTimeouts());
  ASSERT_TRUE(lm.SetLock(LockLevel::kPage, kT1, kP, TxnPhase::kLocking,
                         kItem, LockMode::kIWrite)
                  .ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    const Status st = lm.SetLock(LockLevel::kPage, kT2, kP,
                                 TxnPhase::kLocking, kItem,
                                 LockMode::kIWrite);
    granted = st.ok();
  });
  // The waiter queues its record and counts its wait in one hold of the
  // manager's mutex: once its record shows, it is blocked.
  while (lm.RecordCount(LockLevel::kPage) != 2) std::this_thread::yield();
  EXPECT_FALSE(granted.load());
  lm.ReleaseAll(kT1);
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_GE(lm.stats().waits, 1u);
}

TEST(LockManagerTest, LapsedHolderIsBrokenByCompetitor) {
  LockManager lm(FastTimeouts());
  ASSERT_TRUE(lm.SetLock(LockLevel::kPage, kT1, kP, TxnPhase::kLocking,
                         kItem, LockMode::kIWrite)
                  .ok());
  // T1 never releases; T2 arrives and, after LT, breaks T1's lock.
  const Status st = lm.SetLock(LockLevel::kPage, kT2, kP,
                               TxnPhase::kLocking, kItem, LockMode::kIWrite);
  EXPECT_TRUE(st.ok());
  EXPECT_TRUE(lm.WasBroken(kT1));
  EXPECT_FALSE(lm.WasBroken(kT2));
  EXPECT_GE(lm.stats().breaks, 1u);
  // The broken transaction's next request is refused.
  EXPECT_EQ(lm.SetLock(LockLevel::kPage, kT1, kP, TxnPhase::kLocking,
                       DataItem::Page(FileId{1}, 9), LockMode::kReadOnly)
                .code(),
            ErrorCode::kTxnAborted);
  lm.ClearBroken(kT1);
  EXPECT_FALSE(lm.WasBroken(kT1));
}

TEST(LockManagerTest, SweepBreaksLocksPastLifetimeCap) {
  LockTimeoutConfig cfg;
  cfg.lt = 10ms;
  cfg.n = 2;
  LockManager lm(cfg);
  ASSERT_TRUE(lm.SetLock(LockLevel::kPage, kT1, kP, TxnPhase::kLocking,
                         kItem, LockMode::kIWrite)
                  .ok());
  std::this_thread::sleep_for(25ms);  // past N*LT = 20ms
  lm.SweepExpired();
  EXPECT_TRUE(lm.WasBroken(kT1));
}

TEST(LockManagerTest, YoungUncontendedLockSurvivesSweep) {
  LockManager lm(FastTimeouts());
  ASSERT_TRUE(lm.SetLock(LockLevel::kPage, kT1, kP, TxnPhase::kLocking,
                         kItem, LockMode::kIWrite)
                  .ok());
  lm.SweepExpired();
  EXPECT_FALSE(lm.WasBroken(kT1));
}

TEST(LockManagerTest, MutualDeadlockResolvedByTimeouts) {
  // T1 holds A wants B; T2 holds B wants A. The timeout rule must abort at
  // least one so the other proceeds.
  LockManager lm(FastTimeouts());
  const DataItem a = DataItem::Page(FileId{1}, 0);
  const DataItem b = DataItem::Page(FileId{1}, 1);
  ASSERT_TRUE(lm.SetLock(LockLevel::kPage, kT1, kP, TxnPhase::kLocking, a,
                         LockMode::kIWrite)
                  .ok());
  ASSERT_TRUE(lm.SetLock(LockLevel::kPage, kT2, kP, TxnPhase::kLocking, b,
                         LockMode::kIWrite)
                  .ok());
  std::atomic<int> succeeded{0}, aborted{0};
  auto chase = [&](TxnId me, const DataItem& want) {
    const Status st = lm.SetLock(LockLevel::kPage, me, kP,
                                 TxnPhase::kLocking, want,
                                 LockMode::kIWrite);
    if (st.ok()) {
      ++succeeded;
    } else {
      ++aborted;
    }
  };
  std::thread u([&] { chase(kT1, b); });
  std::thread v([&] { chase(kT2, a); });
  u.join();
  v.join();
  EXPECT_GE(aborted.load(), 1);  // the deadlock was broken
  EXPECT_GE(lm.stats().aborts_signalled, 1u);
}

TEST(LockManagerTest, FifoOrderAmongWaiters) {
  LockManager lm(LockTimeoutConfig{std::chrono::milliseconds(200), 4});
  ASSERT_TRUE(lm.SetLock(LockLevel::kPage, kT1, kP, TxnPhase::kLocking,
                         kItem, LockMode::kIWrite)
                  .ok());
  std::vector<int> grant_order;
  std::mutex order_mu;
  std::atomic<int> started{0};
  auto wait_for_lock = [&](TxnId me, int tag) {
    ++started;
    ASSERT_TRUE(lm.SetLock(LockLevel::kPage, me, kP, TxnPhase::kLocking,
                           kItem, LockMode::kIWrite)
                    .ok());
    {
      std::scoped_lock lk(order_mu);
      grant_order.push_back(tag);
    }
    lm.ReleaseAll(me);
  };
  std::thread first(wait_for_lock, kT2, 2);
  while (started.load() < 1) std::this_thread::yield();
  std::this_thread::sleep_for(10ms);  // ensure T2 queued before T3
  std::thread second(wait_for_lock, kT3, 3);
  std::this_thread::sleep_for(10ms);
  lm.ReleaseAll(kT1);
  first.join();
  second.join();
  ASSERT_EQ(grant_order.size(), 2u);
  EXPECT_EQ(grant_order[0], 2);  // FIFO: the earlier waiter went first
}

}  // namespace
}  // namespace rhodos::txn
