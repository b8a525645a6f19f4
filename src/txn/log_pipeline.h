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
// Locking protocol: Append() runs under the transaction service's big
// mutex (the "io mutex", which also serializes the sim clock);
// AwaitDurable() must be entered WITHOUT it, and the flush leader
// re-acquires it around the device write. The pipeline's own mutex is
// strictly inner: it is never held while the io mutex is taken.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "common/sim_clock.h"
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
  std::uint64_t discarded_records = 0;  // dropped at quiescent truncation
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

class LogPipeline {
 public:
  struct Batch;  // defined in log_pipeline.cc
  using Ticket = std::shared_ptr<Batch>;

  // `io_mu` is the transaction service's mutex (see the locking protocol
  // above); `clock` is the log device's sim clock, read only under it.
  LogPipeline(TxnLog* log, SimClock* clock, std::mutex* io_mu,
              GroupCommitConfig config);

  LogPipeline(const LogPipeline&) = delete;
  LogPipeline& operator=(const LogPipeline&) = delete;

  // Appends one record to the open batch. Caller must hold the io mutex.
  // The record is NOT durable until the returned ticket resolves; pass it
  // to AwaitDurable for records that gate an acknowledgement (the commit
  // status record), drop it for records the next flush may carry freely.
  // With the pipeline disabled this forces immediately and the ticket
  // returns already resolved.
  Result<Ticket> Append(const IntentionRecord& record);

  // Blocks until the ticket's batch has been forced to stable storage and
  // returns the force's status. Caller must NOT hold the io mutex.
  Status AwaitDurable(const Ticket& ticket);

  // Drops every record not yet forced. Legal only at quiescence (no
  // transaction in flight, hence no waiter) — the service calls it right
  // before truncating the log.
  void DiscardPending();

  bool HasPending() const;
  LogPipelineStats stats() const;
  void ResetStats();
  void SetObservability(obs::Observability* o) { obs_ = o; }

 private:
  enum class SealReason { kFull, kDeadline, kWindow };

  // Seals the open batch (mu_ held).
  void SealLocked(SealReason reason);

  TxnLog* log_;
  SimClock* clock_;
  std::mutex* io_mu_;
  GroupCommitConfig config_;
  obs::Observability* obs_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Ticket open_;                 // batch still accepting records
  std::deque<Ticket> sealed_;   // sealed, not yet forced
  bool flushing_ = false;       // a leader holds the force right now
  std::uint64_t pending_bytes_ = 0;  // staged but unforced log bytes
  LogPipelineStats stats_;
};

}  // namespace rhodos::txn
