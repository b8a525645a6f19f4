// The RHODOS transaction service (paper §6).
//
// A totally optional, system-level transaction layer over the basic file
// service. Users operate through the t-prefixed operations (tbegin,
// tcreate, topen, tdelete, tread, tpread, twrite, tpwrite, tget-attribute,
// tlseek, tclose, tend, tabort); the separate operation set "improves
// performance and removes ambiguity as to whether a particular file
// operation belongs to the basic file service or the transaction service".
//
// Concurrency control is strict two-phase locking (§6.2) over the three
// lock modes of Table 1, at the granularity recorded in each file's
// locking-level attribute (record / page / file, §6.1). During the locking
// phase every modification goes to an isolated *tentative data item*,
// invisible to other transactions. Deadlocks are resolved by the LT / N*LT
// timeout rule (§6.4), implemented in LockManager.
//
// Commit (§6.6–§6.7) uses the intentions-list approach: intentions are
// forced to stable storage, the intention flag is flipped to commit, and
// the changes are made permanent by
//   * write-ahead logging when the file's blocks are contiguous (WAL
//     preserves the contiguity the disk layout worked for), and always for
//     record-level locking;
//   * the shadow-page technique otherwise (less commit I/O, but it
//     scatters blocks — the E7 trade-off).
// Recovery replays the log: committed-but-incomplete transactions are
// redone; tentative ones are discarded and their shadow blocks freed.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "file/file_service.h"
#include "obs/observability.h"
#include "txn/lock_manager.h"
#include "txn/lock_types.h"
#include "txn/log_pipeline.h"
#include "txn/txn_log.h"

namespace rhodos::txn {

// Why a transaction reads: a plain query takes a read-only lock; a read
// performed in order to modify takes an Iread lock (§6.3).
enum class ReadIntent : std::uint8_t { kQuery = 0, kForUpdate = 1 };

// Which commit technique End() used for a file (bench introspection).
enum class CommitTechnique : std::uint8_t { kWal = 0, kShadowPage = 1 };

struct TxnServiceConfig {
  LockTimeoutConfig lock_timeout{};
  // Fragments reserved for the intention log region.
  std::uint64_t log_fragments = 512;
  // Group-commit pipeline for the intention log (see log_pipeline.h).
  GroupCommitConfig group_commit{};
  // Force one technique for every commit (benches compare policies);
  // kAuto follows the paper's contiguity rule.
  enum class TechniqueOverride : std::uint8_t { kAuto, kWalAlways,
                                                kShadowAlways };
  TechniqueOverride technique = TechniqueOverride::kAuto;
  // Default-locking-level heuristic (§7): a file accessed at least this
  // often counts as hot and defaults to record locking; a colder file at
  // least this large defaults to file locking; page otherwise.
  std::uint64_t hot_access_threshold = 32;
  std::uint64_t large_file_bytes = 1024 * 1024;
};

struct TxnServiceStats {
  std::uint64_t begins = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts_explicit = 0;
  std::uint64_t aborts_broken = 0;  // victims of the timeout rule
  std::uint64_t wal_commits = 0;    // per touched file
  std::uint64_t shadow_commits = 0;
  std::uint64_t pages_logged = 0;
  std::uint64_t ranges_logged = 0;
  std::uint64_t recovered_redone = 0;
  std::uint64_t recovered_discarded = 0;
};

inline constexpr obs::CounterField<TxnServiceStats> kTxnServiceCounters[] = {
    {"txn.begins", &TxnServiceStats::begins},
    {"txn.commits", &TxnServiceStats::commits},
    {"txn.aborts_explicit", &TxnServiceStats::aborts_explicit},
    {"txn.aborts_broken", &TxnServiceStats::aborts_broken},
    {"txn.wal_commits", &TxnServiceStats::wal_commits},
    {"txn.shadow_commits", &TxnServiceStats::shadow_commits},
    {"txn.pages_logged", &TxnServiceStats::pages_logged},
    {"txn.ranges_logged", &TxnServiceStats::ranges_logged},
    {"txn.recovered_redone", &TxnServiceStats::recovered_redone},
    {"txn.recovered_discarded", &TxnServiceStats::recovered_discarded},
};

class TransactionService {
 public:
  // Where the intention log lives on its disk (for audits: no file may
  // claim fragments inside this region).
  struct LogRegion {
    DiskId disk{};
    FragmentIndex first = 0;
    std::uint64_t fragments = 0;
  };

  // The service reserves its log region on `log_disk` at construction.
  TransactionService(file::FileService* files, disk::DiskServer* log_disk,
                     TxnServiceConfig config = {});

  TransactionService(const TransactionService&) = delete;
  TransactionService& operator=(const TransactionService&) = delete;

  // --- Transaction lifecycle ----------------------------------------------

  Result<TxnId> Begin(ProcessId process);

  // tend: commits. On a lock-timeout break the transaction is aborted
  // instead and kTxnAborted is returned.
  Status End(TxnId txn);

  // tabort: discards all tentative data and releases locks.
  Status Abort(TxnId txn);

  bool IsActive(TxnId txn) const;
  std::size_t ActiveCount() const;

  // --- Transaction-oriented file operations ---------------------------------

  // tcreate: creates a transaction file with the given locking level.
  Result<FileId> TCreate(TxnId txn, file::LockLevel level,
                         std::uint64_t size_hint = 0);

  // topen / tclose: visibility bookkeeping on the underlying service.
  Status TOpen(TxnId txn, FileId file);
  Status TClose(TxnId txn, FileId file);

  // tdelete: requires an IW lock on the whole file; the delete is applied
  // at commit.
  Status TDelete(TxnId txn, FileId file);

  // tread/tpread: positional read with transaction semantics. Reads observe
  // the transaction's own tentative writes.
  Result<std::uint64_t> TRead(TxnId txn, FileId file, std::uint64_t offset,
                              std::span<std::uint8_t> out,
                              ReadIntent intent = ReadIntent::kQuery);

  // twrite/tpwrite: positional write into the tentative data item.
  Result<std::uint64_t> TWrite(TxnId txn, FileId file, std::uint64_t offset,
                               std::span<const std::uint8_t> in);

  Result<file::FileAttributes> TGetAttribute(TxnId txn, FileId file);

  // --- Recovery ---------------------------------------------------------------

  // Replays the intention log after a crash: redoes committed-but-
  // incomplete transactions, discards tentative ones (freeing their shadow
  // blocks). Call once, before accepting new transactions.
  Status Recover();

  // --- Introspection -----------------------------------------------------------

  const TxnServiceStats& stats() const { return stats_; }
  // Zeroes this service's counters only; the lock manager, log and
  // pipeline reset their own.
  void ResetStats() {
    std::scoped_lock lk(mu_);
    stats_ = TxnServiceStats{};
  }

  // Installed by the facility; null means no tracing/metrics.
  void SetObservability(obs::Observability* o) {
    obs_ = o;
    pipeline_.SetObservability(o);
  }
  LockManager& locks() { return locks_; }
  TxnLog& log() { return log_; }
  LogPipeline& pipeline() { return pipeline_; }
  LogRegion log_region() const {
    return LogRegion{log_disk_->id(), log_first_fragment_,
                     config_.log_fragments};
  }
  file::FileService* files() { return files_; }

  // Technique the paper's rule would pick for this file right now.
  Result<CommitTechnique> TechniqueFor(FileId file);

  // Default locking level (§7): "to support default level of locking it
  // exploits the knowledge of how frequently a file is used." Hot files
  // (frequent access implies likely conflicts) get record locking to
  // maximize concurrency; large cold files get file locking (bulk updates,
  // fewest locks to manage — §6.1); everything else gets page locking.
  Result<file::LockLevel> SuggestLockLevel(FileId file);

  // Applies the suggestion to the file's locking-level attribute.
  Status ApplyDefaultLockLevel(FileId file);

 private:
  struct PendingWrite {
    std::uint64_t offset;
    std::vector<std::uint8_t> data;
  };
  struct Txn {
    ProcessId process{};
    TxnPhase phase{TxnPhase::kLocking};
    TxnStatus status{TxnStatus::kTentative};
    bool logged_begin = false;
    // Tentative data: per file, per logical page, the page image as the
    // transaction sees it (page/file mode), plus raw byte-range writes
    // (record mode).
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::vector<std::uint8_t>>
        tentative_pages;  // key: (file.value, page)
    std::vector<std::pair<std::uint64_t, PendingWrite>>
        tentative_ranges;  // (file.value, write) in order
    std::unordered_set<FileId> touched;
    std::unordered_set<FileId> created;    // undone (deleted) on abort
    std::unordered_set<FileId> to_delete;  // applied at commit
    std::unordered_map<FileId, std::uint64_t> tentative_size;
  };

  // Returns the live transaction or an error; also converts a timeout
  // break into an abort.
  Result<Txn*> Live(TxnId txn);

  Result<file::LockLevel> LevelOf(FileId file);

  // Acquires the locks an operation on [offset, offset+len) needs. `level`
  // must have been read under mu_; this call itself runs WITHOUT mu_, so a
  // blocked lock request never stalls the whole service.
  Status AcquireLocks(TxnId txn, Txn& t, FileId file, file::LockLevel level,
                      std::uint64_t offset, std::uint64_t len, LockMode mode);

  // Reads with the tentative overlay applied.
  Result<std::uint64_t> ReadWithOverlay(Txn& t, FileId file,
                                        std::uint64_t offset,
                                        std::span<std::uint8_t> out);

  // Commit machinery. End() runs in three acts:
  //  1. StageCommit (under mu_): pick techniques, stage shadow blocks,
  //     append every intention record — including the commit status — to
  //     the group-commit pipeline;
  //  2. AwaitDurable (mu_ RELEASED): block until the batch carrying the
  //     commit record is forced to stable storage;
  //  3. ApplyCommit (under mu_ again): make the changes permanent.
  // Locks release only after act 2 — strict 2PL would be violated if
  // another transaction could read state whose commit record might still
  // be lost in a crash.
  struct CommitPlan {
    bool has_effects = false;
    LogPipeline::Ticket commit_ticket;  // resolves at the durability point
    std::unordered_map<std::uint64_t, CommitTechnique> technique;
    struct ShadowStage {
      FileId file;
      std::uint64_t page;
      disk::DiskRegistry::Placement placement;
    };
    std::vector<ShadowStage> shadows;
  };
  Status StageCommit(TxnId id, Txn& t, CommitPlan* plan);
  Status ApplyCommit(TxnId id, Txn& t, CommitPlan& plan);
  Status ApplyWalPage(FileId file, std::uint64_t page,
                      std::span<const std::uint8_t> data);
  Status ApplyWalRange(FileId file, std::uint64_t offset,
                       std::span<const std::uint8_t> data);

  void Finish(TxnId id);

  file::FileService* files_;
  TxnServiceConfig config_;
  LockManager locks_;
  disk::DiskServer* log_disk_;
  FragmentIndex log_first_fragment_;
  TxnLog log_;
  LogPipeline pipeline_;

  mutable std::mutex mu_;  // guards txns_ and file-service access
  std::unordered_map<TxnId, Txn> txns_;
  std::uint64_t next_txn_{1};
  // Set when a logged commit could not be fully applied (disk failure
  // mid-apply): blocks log truncation until Recover() has redone it.
  bool log_needs_recovery_ = false;
  TxnServiceStats stats_;
  obs::Observability* obs_ = nullptr;
};

}  // namespace rhodos::txn
