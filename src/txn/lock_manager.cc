#include "txn/lock_manager.h"

#include <algorithm>

namespace rhodos::txn {

std::string_view LockModeName(LockMode mode) {
  switch (mode) {
    case LockMode::kReadOnly: return "RO";
    case LockMode::kIRead: return "IR";
    case LockMode::kIWrite: return "IW";
  }
  return "?";
}

bool LockManager::IsConversion(const LockTable& table,
                               const LockRecord& rec) const {
  if (rec.mode != LockMode::kIWrite) return false;
  auto it = table.queues.find(rec.item.file);
  if (it == table.queues.end()) return false;
  for (const LockRecord& g : it->second) {
    if (g.granted && g.txn == rec.txn && g.mode == LockMode::kIRead &&
        g.item.Overlaps(rec.item)) {
      return true;
    }
  }
  return false;
}

bool LockManager::Grantable(LockLevel level, const LockRecord& rec) const {
  const LockTable& table = TableFor(level);
  // Within the request's own table: Table 1 against granted locks, FIFO
  // against earlier waiters.
  if (auto it = table.queues.find(rec.item.file); it != table.queues.end()) {
    const bool conversion = IsConversion(table, rec);
    for (const LockRecord& other : it->second) {
      if (other.seq == rec.seq || other.txn == rec.txn) {
        continue;  // a transaction never conflicts with itself
      }
      if (!other.item.Overlaps(rec.item)) continue;
      if (other.granted) {
        // Table 1: the request must be compatible with every granted lock
        // held by another transaction. A conversion additionally requires
        // that NO other transaction holds anything on the item, which this
        // test already enforces (nothing another txn holds is compatible
        // with IW).
        if (!Compatible(other.mode, rec.mode)) return false;
      } else if (!conversion && other.seq < rec.seq) {
        // FIFO wait queue (§6.5): an earlier waiter goes first. Conversions
        // bypass the queue — the converting transaction already holds the
        // IR and making it wait behind a later request would deadlock.
        return false;
      }
    }
  }
  // The §6.1 relaxation: granted locks at OTHER levels also conflict when
  // their byte ranges overlap (a file-level lock overlaps everything in
  // the file; a record lock overlaps the pages covering it; and so on).
  for (std::size_t lv = 0; lv < 3; ++lv) {
    if (lv == static_cast<std::size_t>(level)) continue;
    const LockTable& other_table = tables_[lv];
    auto it = other_table.queues.find(rec.item.file);
    if (it == other_table.queues.end()) continue;
    for (const LockRecord& other : it->second) {
      if (!other.granted || other.txn == rec.txn) continue;
      if (!other.item.Overlaps(rec.item)) continue;
      if (!Compatible(other.mode, rec.mode)) return false;
    }
  }
  return true;
}

bool LockManager::BreakLapsedHolders(const LockRecord& rec) {
  const auto now = Clock::now();
  std::vector<TxnId> victims;
  for (std::size_t lv = 0; lv < 3; ++lv) {
    auto it = tables_[lv].queues.find(rec.item.file);
    if (it == tables_[lv].queues.end()) continue;
    for (const LockRecord& other : it->second) {
      if (!other.granted || other.txn == rec.txn) continue;
      if (!other.item.Overlaps(rec.item)) continue;
      if (Compatible(other.mode, rec.mode)) continue;
      const auto age = now - other.granted_at;
      // The competitor (rec) has already waited a full LT to get here, so
      // the holder's invulnerability is not renewed; it lapses after LT,
      // and lapses unconditionally after N*LT.
      if (age >= config_.lt || age >= config_.lt * config_.n) {
        victims.push_back(other.txn);
      }
    }
  }
  for (TxnId v : victims) BreakTransaction(v);
  return !victims.empty();
}

void LockManager::BreakTransaction(TxnId txn) {
  // "its lock is broken and the transaction is aborted" (§6.4).
  broken_.insert(txn);
  ++stats_.aborts_signalled;
  for (LockTable& table : tables_) {
    for (auto& [file, queue] : table.queues) {
      for (auto it = queue.begin(); it != queue.end();) {
        if (it->txn == txn) {
          if (it->granted) ++stats_.breaks;
          it = queue.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  cv_.notify_all();
}

void LockManager::NotePeak() {
  for (const LockTable& table : tables_) {
    stats_.records_peak = std::max<std::uint64_t>(stats_.records_peak,
                                                  table.RecordCount());
  }
}

Status LockManager::SetLock(LockLevel level, TxnId txn, ProcessId process,
                            TxnPhase phase, const DataItem& item,
                            LockMode mode) {
  std::unique_lock lk(mu_);
  if (broken_.count(txn) != 0) {
    return {ErrorCode::kTxnAborted, "transaction was broken by timeout"};
  }
  LockTable& table = TableFor(level);
  auto& queue = table.queues[item.file];

  // Re-request of a mode already held (or weaker) is a no-op; an exact-range
  // re-request of a stronger mode upgrades the record in place.
  for (LockRecord& g : queue) {
    if (g.granted && g.txn == txn && g.item == item) {
      if (static_cast<int>(mode) <= static_cast<int>(g.mode)) {
        return OkStatus();
      }
      // Upgrade path (e.g. IR -> IW): stage a request record; on grant we
      // raise the existing record's mode rather than keeping two.
      break;
    }
  }

  queue.push_back(LockRecord{process, txn, phase, mode, /*granted=*/false, 0,
                             item, next_seq_++, {}});
  auto rec_it = std::prev(queue.end());
  NotePeak();

  bool waited = false;
  const Clock::time_point entered = Clock::now();
  while (true) {
    if (broken_.count(txn) != 0) {
      // Broken while waiting (we may hold locks elsewhere that lapsed).
      // BreakTransaction already erased our records, including this one.
      return {ErrorCode::kTxnAborted, "transaction broken while waiting"};
    }
    if (Grantable(level, *rec_it)) {
      const bool conversion = IsConversion(table, *rec_it);
      // Collapse an upgrade into the original record.
      for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (it != rec_it && it->granted && it->txn == txn &&
            it->item == rec_it->item) {
          it->mode = rec_it->mode;
          it->granted_at = Clock::now();
          queue.erase(rec_it);
          rec_it = it;
          goto granted;
        }
      }
      rec_it->granted = true;
      rec_it->granted_at = Clock::now();
    granted:
      ++stats_.grants;
      if (!waited) ++stats_.immediate_grants;
      if (waited) {
        stats_.wait_time_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - entered)
                .count());
      }
      if (conversion) ++stats_.conversions;
      cv_.notify_all();  // our grant may unblock a compatible reader
      return OkStatus();
    }
    if (!waited) {
      waited = true;
      ++stats_.waits;
    }
    const auto wait_result = cv_.wait_for(lk, config_.lt);
    if (wait_result == std::cv_status::timeout) {
      // If our own records were erased while we slept (a concurrent waiter
      // broke us), rec_it is dangling — check before touching it.
      if (broken_.count(txn) != 0) {
        return {ErrorCode::kTxnAborted, "transaction broken while waiting"};
      }
      // Our invulnerability grace for the holders has expired.
      rec_it->retry_count += 1;
      BreakLapsedHolders(*rec_it);
      // BreakLapsedHolders only erases OTHER transactions' records, so
      // rec_it is still valid here; but we may have broken a holder whose
      // departure grants us — loop around and re-test.
    }
  }
}

Status LockManager::TryLock(LockLevel level, TxnId txn, ProcessId process,
                            TxnPhase phase, const DataItem& item,
                            LockMode mode) {
  std::unique_lock lk(mu_);
  if (broken_.count(txn) != 0) {
    return {ErrorCode::kTxnAborted, "transaction was broken by timeout"};
  }
  LockTable& table = TableFor(level);
  auto& queue = table.queues[item.file];
  for (LockRecord& g : queue) {
    if (g.granted && g.txn == txn && g.item == item &&
        static_cast<int>(mode) <= static_cast<int>(g.mode)) {
      return OkStatus();
    }
  }
  LockRecord rec{process, txn,  phase, mode, /*granted=*/false, 0,
                 item,    next_seq_++, {}};
  queue.push_back(rec);
  auto rec_it = std::prev(queue.end());
  if (!Grantable(level, *rec_it)) {
    queue.erase(rec_it);
    return {ErrorCode::kLockConflict, "lock not immediately available"};
  }
  // Must be decided before the collapse below erases the granted IR.
  const bool conversion = IsConversion(table, *rec_it);
  // Handle upgrade collapse as in SetLock.
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    if (it != rec_it && it->granted && it->txn == txn &&
        it->item == rec_it->item) {
      it->mode = rec_it->mode;
      it->granted_at = Clock::now();
      queue.erase(rec_it);
      ++stats_.grants;
      ++stats_.immediate_grants;
      if (conversion) ++stats_.conversions;
      return OkStatus();
    }
  }
  rec_it->granted = true;
  rec_it->granted_at = Clock::now();
  ++stats_.grants;
  ++stats_.immediate_grants;
  NotePeak();
  return OkStatus();
}

std::optional<LockRecord> LockManager::GetLockRecord(
    LockLevel level, TxnId txn, const DataItem& item) const {
  std::scoped_lock lk(mu_);
  const LockTable& table = TableFor(level);
  auto it = table.queues.find(item.file);
  if (it == table.queues.end()) return std::nullopt;
  for (const LockRecord& rec : it->second) {
    if (rec.txn == txn && rec.item == item) return rec;
  }
  return std::nullopt;
}

Status LockManager::Unlock(LockLevel level, TxnId txn, const DataItem& item) {
  std::scoped_lock lk(mu_);
  LockTable& table = TableFor(level);
  auto it = table.queues.find(item.file);
  if (it != table.queues.end()) {
    for (auto rec = it->second.begin(); rec != it->second.end(); ++rec) {
      if (rec->txn == txn && rec->item == item && rec->granted) {
        it->second.erase(rec);
        cv_.notify_all();
        return OkStatus();
      }
    }
  }
  return {ErrorCode::kNotLocked, "no granted lock on that data item"};
}

void LockManager::ReleaseAll(TxnId txn) {
  std::scoped_lock lk(mu_);
  for (LockTable& table : tables_) {
    for (auto& [file, queue] : table.queues) {
      for (auto it = queue.begin(); it != queue.end();) {
        it = it->txn == txn ? queue.erase(it) : std::next(it);
      }
    }
  }
  cv_.notify_all();
}

bool LockManager::WasBroken(TxnId txn) const {
  std::scoped_lock lk(mu_);
  return broken_.count(txn) != 0;
}

void LockManager::ClearBroken(TxnId txn) {
  std::scoped_lock lk(mu_);
  broken_.erase(txn);
}

void LockManager::SweepExpired() {
  std::scoped_lock lk(mu_);
  const auto now = Clock::now();
  const auto cap = config_.lt * config_.n;
  std::vector<TxnId> victims;
  for (LockTable& table : tables_) {
    for (auto& [file, queue] : table.queues) {
      for (const LockRecord& rec : queue) {
        if (rec.granted && now - rec.granted_at >= cap) {
          victims.push_back(rec.txn);
        }
      }
    }
  }
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  for (TxnId v : victims) BreakTransaction(v);
}

std::size_t LockManager::RecordCount(LockLevel level) const {
  std::scoped_lock lk(mu_);
  return TableFor(level).RecordCount();
}

void LockManager::ResetStats() {
  std::scoped_lock lk(mu_);
  stats_ = LockStats{};
}

}  // namespace rhodos::txn
