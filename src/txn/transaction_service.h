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
//     scatters blocks — the E7 trade-off). The shadow pages go to fresh
//     blocks in the same flush as the force that commits them.
// Everything after the force is redo work, and one Redo does it. The
// commit is no-force (ARIES's no-force/redo rule): End redoes the records
// it just logged into the owning file service's caches only and returns;
// the writes that leaves owed ride later log forces as their write-behind:
// a remapped table the next force, a file's WAL pages the first force
// whose lanes they do not lengthen (log_pipeline.h), a later commit to the
// file replacing the pages that still wait. A block a remap replaced is
// freed once its table has landed. The records stay in the log, claiming
// the files they name from basic puts (file::LogClaims), until a
// checkpoint (Checkpoint) has landed everything the log covers and
// persisted the bitmaps. Recovery redoes, in commit order, every committed
// transaction the log holds whose shadow pages read back intact; tentative
// transactions, and committed ones whose pages did not land, are
// discarded and their shadow blocks freed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
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
};

struct TxnServiceStats {
  std::uint64_t begins = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts_explicit = 0;
  std::uint64_t aborts_broken = 0;  // victims of the timeout rule
  std::uint64_t wal_commits = 0;    // per file a commit wrote by WAL
  std::uint64_t shadow_commits = 0;  // per shadow-paged file
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

  // The service reaches each file through `files`, the file service that
  // serves it right now, so one intention log covers files of every shard.
  // It reserves its log region on disk 0 of `disks` and hands its log's
  // claims (claims()) to `files`' service for FileId{}; a facility hands
  // them to every shard. Those disks and services must outlive it and take
  // no basic put before the next instance's Recover() has run.
  TransactionService(disk::DiskRegistry* disks, file::FileResolver files,
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

  // Replays the intention log after a crash: redoes every committed
  // transaction it holds, discards tentative ones (freeing their shadow
  // blocks), frees the blocks committed remaps replaced that no file maps
  // any more, then lands everything and resets the log. Call once, before
  // accepting new transactions.
  Status Recover();

  // Lands everything the log covers — the write-behind, the blocks it
  // frees and, after a commit that changed them, every disk's bitmap —
  // then resets the log. Fails with kUnavailable, the log kept, while a
  // commit is in flight, after a failed redo until Recover() has run, and
  // after a failed force while the log's device is down; once it is back,
  // the checkpoint settles the failed commits as aborted and frees their
  // shadow blocks. Runs by itself when the log cannot take the next
  // commit, and before a basic put the log claims (file::LogClaims),
  // which is refused when it fails; benches call it before reading
  // counters.
  Status Checkpoint();

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
  // What the log claims of basic puts; see the constructor.
  file::LogClaims& claims() { return claims_; }
  LogPipeline& pipeline() { return pipeline_; }
  LogRegion log_region() const {
    return LogRegion{log_disk_->id(), log_first_fragment_,
                     config_.log_fragments};
  }

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
  //  1. StageCommit (under mu_): pick techniques, allocate shadow blocks,
  //     append every intention record — including the commit status, which
  //     carries the shadow pages — to the group-commit pipeline, and keep
  //     the redo records in the plan; nothing is written yet;
  //  2. AwaitDurable (mu_ RELEASED): block until the flush that forces the
  //     batch carrying the commit record has also written its shadow pages
  //     (and what it carries of what earlier commits owed);
  //  3. ApplyCommit (under mu_ again): Redo the plan's records into the
  //     owners' caches and hand what they owe to the write-behind.
  // Locks release in Finish(), after act 3 — strict 2PL would be violated
  // if another transaction could read state whose commit record might
  // still be lost in a crash, or that the redo has not made visible yet.
  struct CommitPlan {
    bool has_effects = false;
    LogPipeline::Ticket commit_ticket;  // resolves at the durability point
    std::unordered_map<std::uint64_t, CommitTechnique> technique;
    std::vector<IntentionRecord> records;  // the redo records, in log order
  };
  Status StageCommit(TxnId id, Txn& t, CommitPlan* plan);
  struct ShadowStage {
    FileId file;
    std::uint64_t page;
    disk::DiskRegistry::Placement placement;
  };
  // Allocates the blocks of `shadows` — the pages homed on one disk as one
  // contiguous run when it has one, else one block per page — and returns
  // the runs of page images to write there.
  Result<std::vector<FreshRun>> PlaceShadows(const Txn& t,
                                             std::vector<ShadowStage>& shadows);
  Status ApplyCommit(const Txn& t, const CommitPlan& plan);
  // Whether the log has room for `t`'s commit records beside what it holds.
  bool LogHasRoomFor(const Txn& t) const;
  // Hands `file`'s logged state to the write-behind: a new group, or the
  // file's group in place.
  Status Owe(FileId file);

  // Persists every disk's bitmap, the disks overlapping.
  Status PersistBitmaps();
  // Checkpoint with mu_ held. `eager` makes the reset durable at once, as
  // a basic put needs; otherwise the next force does it. Fails when the
  // log could not be reset; writes nothing when the log holds nothing. The
  // service's own puts the log does not cover (a create, an abort's
  // delete, a table store) run it first, so they never take mu_ again.
  Status CheckpointLocked(bool eager);
  // Deletes the files `t` created, after a checkpoint that must not fail.
  void DeleteCreated(const Txn& t);
  // After a flush: the write-behind groups whose writes all landed leave
  // the list, their owners learn it, and their replaced blocks are freed.
  // A group the flush did not carry, or whose write failed, stays.
  void SettleWriteBehind();
  // Drops the claims a landed reset ended, once no reset is pending.
  void DropLandedClaims();

  // The steps of a redo, in the order a commit applies them: the writes
  // (page writes, each file's remaps with one table store, range writes),
  // each file grown to the final size its records carry, the deletes.
  enum class RedoStep : std::uint8_t { kWrites, kSizes, kDeletes };
  // Applies `step` of a committed transaction's `records`, in the order
  // they were logged. Idempotent, so a recovery may redo a commit that was
  // applied before the crash. Both callers hold a FileService::LoggedApply
  // on every owner, so the writes, remaps and growths reach only the
  // owners' caches: Redo writes none of them itself, the write-behind does.
  // A delete still scrubs and frees its file at once.
  Status Redo(std::span<const IntentionRecord> records, RedoStep step);

  void Finish(TxnId id);

  // Where a kShadowMap record's remap stands: the file is gone, it maps
  // the page to the shadow block already, or the remap is still to be
  // applied. Recovery: whether every pending remap of `records` that no
  // later commit overwrites (`later`: file and page; `deleted`: files) has
  // its block read back intact on both copies — a later commit may have
  // replaced and freed the block of an earlier one. A malformed record or
  // a read error fails.
  enum class Remap : std::uint8_t { kNoFile, kApplied, kPending };
  Remap RemapState(const IntentionRecord& r);
  using PageSet = std::set<std::pair<std::uint64_t, std::uint64_t>>;
  Result<bool> ShadowsLanded(const std::vector<IntentionRecord>& records,
                             const PageSet& later,
                             const std::set<std::uint64_t>& deleted);

  disk::DiskRegistry* disks_;
  file::FileResolver files_;
  TxnServiceConfig config_;
  LockManager locks_;
  disk::DiskServer* log_disk_;
  FragmentIndex log_first_fragment_;
  TxnLog log_;
  LogPipeline pipeline_;

  // Guards txns_, the write-behind and file-service access. A basic put's
  // checkpoint takes it (claims_).
  mutable std::mutex mu_;
  file::LogClaims claims_{[this] { return Checkpoint(); }};
  std::unordered_map<TxnId, Txn> txns_;
  std::uint64_t next_txn_{1};
  // What a failed commit left the log awaiting. Until it is settled, the
  // log is not truncated, and so every basic put its claims cover is
  // refused.
  //  kForce: a commit's force failed, so its record may have landed. It
  //    was reported aborted and reached no cache: a checkpoint, whose log
  //    reset no recovery can see past, settles it (CheckpointLocked).
  //  kRedo: a committed transaction's redo, or recovery's landing of it,
  //    failed: only Recover() settles it.
  enum class Doubt : std::uint8_t { kNone, kForce, kRedo };
  Doubt doubt_ = Doubt::kNone;
  // The kShadowMap records of commits whose force failed: the log may hold
  // none of them, and their shadow blocks are allocated in this instance.
  std::vector<IntentionRecord> doubtful_;
  // Commits between staging and the capture of their write-behind: their
  // records must stay in the log.
  int unsettled_ = 0;
  // A commit since the last checkpoint remapped, deleted or grew a file:
  // the next checkpoint persists the bitmaps before the log lets go.
  bool bitmaps_dirty_ = false;
  // The write-behind: per file, what acknowledged commits still owe, and
  // the owner that holds it logged, oldest first. A file has at most one
  // group: a later commit's capture replaces it in place.
  struct Owed {
    file::FileService* owner;
    file::LoggedWrites writes;
    std::vector<Status> status;  // set by the flush that carries them
  };
  std::vector<Owed> owed_;
  TxnServiceStats stats_;
  obs::Observability* obs_ = nullptr;
};

}  // namespace rhodos::txn
