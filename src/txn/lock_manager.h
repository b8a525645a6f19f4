// Lock tables and the 2PL lock manager (paper §6.2–§6.5).
//
// One lock table per locking level: "For each level of locking, a file
// server maintains a separate lock table", which keeps each table small and
// fast to search. A lock record carries exactly the fields of §6.5:
// process identifier, transaction descriptor, phase, type of lock, granted
// or not, retry count, and the descriptor of the data item; records for the
// same data item form a FIFO wait queue.
//
// Deadlock handling is the timeout scheme of §6.4: a granted lock is
// *invulnerable* for LT. While nobody competes for the item the lock's
// invulnerability is silently renewed, but never beyond N*LT in total.
// A competitor that has waited LT may break any conflicting lock whose
// invulnerability has lapsed; the broken holder's transaction is aborted
// (it discovers this at its next operation). After the Nth renewal the lock
// is broken even without competitors — the transaction is suspected
// deadlocked or permanently blocked.
//
// Thread safety: fully thread safe; this is the one component of the
// facility where real concurrency is the phenomenon under study (E8/E9).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "file/file_types.h"
#include "obs/metrics.h"
#include "txn/lock_types.h"

namespace rhodos::txn {

using Clock = std::chrono::steady_clock;

// The lock record of §6.5.
struct LockRecord {
  ProcessId process{};
  TxnId txn{};
  TxnPhase phase{TxnPhase::kLocking};
  LockMode mode{LockMode::kReadOnly};
  bool granted = false;
  std::uint32_t retry_count = 0;
  DataItem item{};
  // Queue position: records are kept in arrival order per file; this
  // sequence number implements the singly-linked wait queues of §6.5.
  std::uint64_t seq = 0;
  Clock::time_point granted_at{};
};

struct LockTimeoutConfig {
  std::chrono::milliseconds lt{50};  // invulnerability period LT
  std::uint32_t n = 4;               // max N renewals (N*LT lifetime cap)
  // §6.1 assumes "a file cannot be subjected to more than one level of
  // locking by concurrent transactions", noting "this constraint can be
  // relaxed, if required, at a later stage". With cross-level checking on
  // (the relaxation, default), a request is validated against overlapping
  // granted locks in EVERY level's table, so a record-mode transaction and
  // a file-mode transaction on the same file conflict correctly.
  bool cross_level_checking = true;
};

struct LockStats {
  std::uint64_t grants = 0;
  std::uint64_t immediate_grants = 0;  // granted without waiting
  std::uint64_t waits = 0;             // requests that blocked at least once
  std::uint64_t conversions = 0;       // IR -> IW by the same transaction
  std::uint64_t breaks = 0;            // locks broken by the timeout rule
  std::uint64_t aborts_signalled = 0;  // transactions marked broken
  std::uint64_t records_peak = 0;      // max records in any single table
  std::uint64_t wait_time_ns = 0;      // wall-clock time spent blocked
};

inline constexpr obs::CounterField<LockStats> kLockCounters[] = {
    {"lock.grants", &LockStats::grants},
    {"lock.immediate_grants", &LockStats::immediate_grants},
    {"lock.waits", &LockStats::waits},
    {"lock.conversions", &LockStats::conversions},
    {"lock.breaks", &LockStats::breaks},
    {"lock.aborts_signalled", &LockStats::aborts_signalled},
    {"lock.records_peak", &LockStats::records_peak},
    {"lock.wait_time_ns", &LockStats::wait_time_ns},
};

// One lock table (for one locking level).
class LockTable {
 public:
  // All records, granted and waiting, for one file, in arrival order.
  using FileQueue = std::list<LockRecord>;

  std::unordered_map<FileId, FileQueue> queues;

  std::size_t RecordCount() const {
    std::size_t n = 0;
    for (const auto& [f, q] : queues) n += q.size();
    return n;
  }
};

class LockManager {
 public:
  explicit LockManager(LockTimeoutConfig config = {}) : config_(config) {}

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  // set_lock (§6.5): blocks until the lock is granted, the caller's
  // transaction is broken by the timeout rule (kTxnAborted), or the request
  // itself gives up after breaking every breakable holder yet still finding
  // conflict (kLockTimeout — only possible against young locks that keep
  // being re-granted ahead of us, bounded in practice).
  Status SetLock(LockLevel level, TxnId txn, ProcessId process,
                 TxnPhase phase, const DataItem& item, LockMode mode);

  // Non-blocking probe used by tests: tries once, never waits.
  Status TryLock(LockLevel level, TxnId txn, ProcessId process,
                 TxnPhase phase, const DataItem& item, LockMode mode);

  // get_lock_record (§6.5).
  std::optional<LockRecord> GetLockRecord(LockLevel level, TxnId txn,
                                          const DataItem& item) const;

  // unlock (§6.5): releases one granted lock of `txn` on exactly `item`.
  Status Unlock(LockLevel level, TxnId txn, const DataItem& item);

  // Releases every lock of the transaction across all tables — the
  // unlocking phase of 2PL, entered at commit or abort.
  void ReleaseAll(TxnId txn);

  // True iff the timeout rule broke this transaction's locks; the
  // transaction service must abort it. Checking consumes nothing.
  bool WasBroken(TxnId txn) const;
  // Forgets a broken marker once the transaction has been aborted.
  void ClearBroken(TxnId txn);

  // Applies the N*LT lifetime cap to uncontended locks; called
  // opportunistically by the transaction service.
  void SweepExpired();

  const LockStats& stats() const { return stats_; }
  void ResetStats();

  std::size_t RecordCount(LockLevel level) const;

 private:
  LockTable& TableFor(LockLevel level) {
    return tables_[static_cast<std::size_t>(level)];
  }
  const LockTable& TableFor(LockLevel level) const {
    return tables_[static_cast<std::size_t>(level)];
  }

  // Grant rules of Table 1 + FIFO fairness; with cross-level checking the
  // request is also tested against granted locks in the other levels'
  // tables. Must hold mu_.
  bool Grantable(LockLevel level, const LockRecord& rec) const;
  // True iff `rec` is an IR->IW conversion by its own transaction.
  bool IsConversion(const LockTable& table, const LockRecord& rec) const;
  // Breaks conflicting holders (across all levels when cross-level
  // checking is on) whose invulnerability has lapsed; returns true if any
  // lock was broken. Must hold mu_.
  bool BreakLapsedHolders(LockLevel level, const LockRecord& rec);
  // Removes every record of `txn` and marks it broken. Must hold mu_.
  void BreakTransaction(TxnId txn);
  void NotePeak();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  LockTable tables_[3];  // indexed by LockLevel: record, page, file
  std::unordered_set<TxnId> broken_;
  LockTimeoutConfig config_;
  LockStats stats_;
  std::uint64_t next_seq_{1};
};

}  // namespace rhodos::txn
