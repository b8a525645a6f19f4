// Group commit for the intentions list.
//
// The paper's commit rule — force the intentions to stable storage, then
// flip the flag — charges every committing transaction a synchronous
// stable-storage reference. Under concurrent load that serial force is the
// dominant commit cost. The pipeline amortizes it: intention records from
// many concurrently-committing transactions accumulate in a shared
// in-memory batch, one elected leader forces the whole batch with a single
// vectored put, and every transaction in the batch acknowledges off that
// one disk reference.
//
// A batch seals when it carries `max_batch` commit records, when its sim
// age exceeds `flush_deadline`, or when a committer reaches the durability
// wait with no flush running (after an optional real-time `leader_window`
// pause for joiners). Failure stays per-batch: a failed force resolves
// only the transactions whose records rode in it.
//
// A commit record may carry fresh runs: the transaction's shadow pages,
// staged in blocks nothing durable refers to yet. The flush that forces
// the record's batch writes them too (each run main ‖ mirror,
// DiskServer::PutFreshBlock). No write order separates a page from the
// force that commits it: each kShadowMap record carries its page's
// checksum, and recovery redoes a commit only if its pages read back
// intact (TransactionService::Recover). A commit is acknowledged only if
// its runs and the force all succeeded.
//
// A flush also carries the write-behind: the writes that commits
// acknowledged at earlier forces still owe (SetWriteBehind). The force,
// the runs and the write-behind go out as the lanes of one section, keyed
// by device: the log force owns the log disk's stable device, a data block
// owns its disk's main device, and a run or an index table, which write
// both copies, own both of their disk's devices, so whatever else touches
// that disk joins their lane. A disk's lane writes its write-behind first,
// then its runs, then, on the log disk, the force. A table with indirect
// blocks, which keeps main then mirror and may span disks, goes out after
// the section, in order.
//
// The write-behind fills idle devices (the paper's delayed write, §5): the
// force and the runs set the flush's depth, the most references any one
// lane serves for them, and a group of data blocks alone rides only if no
// lane it joins grows past that depth (or the lanes it joins are idle).
// Otherwise it stays owed for a later force: at most 8 groups, the oldest
// riding first, and none once the log is within 1/32 of full. A group with
// a table rides at once, and a flush with no force (a checkpoint) carries
// everything.
//
// Locking protocol: Append() runs under the transaction service's big
// mutex (the "io mutex", which also serializes the sim clock);
// AwaitDurable() must be entered WITHOUT it, and the flush leader
// re-acquires it around the device write. Neither is ever taken twice on
// one thread. The pipeline's own mutex is strictly inner: it is never held
// while the io mutex is taken.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/sim_clock.h"
#include "disk/disk_server.h"
#include "obs/observability.h"
#include "txn/txn_log.h"

namespace rhodos::txn {

struct GroupCommitConfig {
  // Off = every record is forced at append time (batch size 1), the
  // pre-pipeline behaviour benches compare against.
  bool enabled = true;
  // Commit records per batch before it seals regardless of timing.
  std::uint32_t max_batch = 16;
  // Sim age of the oldest record at which the open batch seals.
  SimTime flush_deadline = 5 * kSimMillisecond;
  // Real time the elected flush leader waits for more committers to join
  // before sealing a not-yet-full batch. Zero (the default) keeps
  // single-threaded workloads deterministic and latency-free.
  std::chrono::microseconds leader_window{0};
};

struct LogPipelineStats {
  std::uint64_t batches = 0;         // batch frames forced
  std::uint64_t records = 0;         // records those frames carried
  std::uint64_t acks = 0;            // commit records acknowledged durable
  std::uint64_t flushes = 0;         // leader force writes (>= 1 frame each)
  std::uint64_t seals_full = 0;      // sealed at max_batch commit records
  std::uint64_t seals_deadline = 0;  // sealed by the sim-time deadline
  std::uint64_t seals_window = 0;    // sealed by a flush leader
  std::uint64_t discarded_records = 0;  // dropped unforced at recovery
};

// discarded_records is not exported.
inline constexpr obs::CounterField<LogPipelineStats> kLogPipelineCounters[] = {
    {"txn.group_commit.acks", &LogPipelineStats::acks},
    {"txn.group_commit.batches", &LogPipelineStats::batches},
    {"txn.group_commit.flushes", &LogPipelineStats::flushes},
    {"txn.group_commit.records", &LogPipelineStats::records},
    {"txn.group_commit.seals_deadline", &LogPipelineStats::seals_deadline},
    {"txn.group_commit.seals_full", &LogPipelineStats::seals_full},
    {"txn.group_commit.seals_window", &LogPipelineStats::seals_window},
};

// Whole blocks to write at `first` on `disk` with the commit record they
// ride: freshly allocated, so main and mirror go out together.
struct FreshRun {
  disk::DiskServer* disk = nullptr;
  FragmentIndex first = 0;
  std::vector<std::uint8_t> image;  // a multiple of kBlockSize bytes
};

class LogPipeline {
 public:
  struct Batch;  // defined in log_pipeline.cc
  // One append's claim on its batch: the batch, and the slice of the
  // batch's fresh runs the append brought.
  struct Ticket {
    std::shared_ptr<Batch> batch;
    std::size_t first_run = 0;
    std::size_t end_run = 0;
  };

  // `io_mu` is the transaction service's mutex (see the locking protocol
  // above); `log_disk` holds the log, and its sim clock is read only under
  // `io_mu`.
  LogPipeline(TxnLog* log, disk::DiskServer* log_disk,
              std::mutex* io_mu, GroupCommitConfig config);

  LogPipeline(const LogPipeline&) = delete;
  LogPipeline& operator=(const LogPipeline&) = delete;

  // Appends one record, and the fresh runs the flush forcing it must also
  // write, to the open batch. Caller must hold the io mutex. The record is
  // serialized before Append returns, so the caller may keep or move it.
  // It is NOT durable until the returned ticket resolves; pass the ticket
  // to AwaitDurable for records that gate an acknowledgement (the commit
  // status record), drop it for records the next flush may carry freely.
  // With the pipeline disabled this writes the runs and forces
  // immediately, and the ticket returns already resolved.
  Result<Ticket> Append(const IntentionRecord& record,
                        std::vector<FreshRun> runs = {});

  // Blocks until the ticket's batch has been forced to stable storage and
  // returns the force's status, or else the first failure among the
  // ticket's own runs. Caller must NOT hold the io mutex.
  Status AwaitDurable(const Ticket& ticket);

  // Drops every record not yet forced. Legal only with no waiter: at
  // recovery, before the log is replayed.
  void DiscardPending();

  // One write the write-behind owes: the disk it writes, which of that
  // disk's devices it occupies (the main one, or both copies at once),
  // whether it must instead run after the section in the order collected
  // (a table that keeps main then mirror and may span disks), the group it
  // rides or waits with (consecutive writes of one group), the write
  // itself, and where its status goes. A write the flush does not carry
  // keeps its status.
  struct Owed {
    DiskId disk;
    bool both_devices = false;
    bool in_order = false;
    std::size_t group = 0;
    std::function<Status()> write;
    Status* status = nullptr;
  };
  // Installs the write-behind: at every flush `collect` appends what
  // acknowledged commits still owe, the flush writes what it carries
  // beside its force, and `settle` runs once every status is set. Both run
  // under the io mutex, and the writes must stay valid until `settle`
  // returns.
  void SetWriteBehind(std::function<void(std::vector<Owed>&)> collect,
                      std::function<void()> settle) {
    collect_ = std::move(collect);
    settle_ = std::move(settle);
  }
  // Writes the whole write-behind alone, one lane per device group, and
  // settles it (a checkpoint). Caller holds the io mutex.
  void FlushWriteBehind() { (void)WriteAndForce({}, {}); }

  bool HasPending() const;
  // Log bytes staged but not yet forced.
  std::uint64_t PendingBytes() const;
  LogPipelineStats stats() const;
  void ResetStats();
  void SetObservability(obs::Observability* o) { obs_ = o; }

 private:
  enum class SealReason { kFull, kDeadline, kWindow };

  // Seals the open batch (mu_ held).
  void SealLocked(SealReason reason);

  // Writes the fresh runs of `batches` and what it carries of the
  // write-behind, setting each one's status, and forces `frames` (when
  // there are any): lanes keyed by device, as the header comment says.
  // Returns the force's status. Caller holds the io mutex.
  Status WriteAndForce(std::span<const std::shared_ptr<Batch>> batches,
                       std::span<const TxnLog::BatchFramePayload> frames);

  TxnLog* log_;
  disk::DiskServer* log_disk_;
  SimClock* clock_;
  std::mutex* io_mu_;
  GroupCommitConfig config_;
  std::function<void(std::vector<Owed>&)> collect_;
  std::function<void()> settle_;
  obs::Observability* obs_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<Batch> open_;                // still accepting records
  std::deque<std::shared_ptr<Batch>> sealed_;  // sealed, not yet forced
  bool flushing_ = false;       // a leader holds the force right now
  std::uint64_t pending_bytes_ = 0;  // staged but unforced log bytes
  LogPipelineStats stats_;
};

}  // namespace rhodos::txn
