#include "txn/log_pipeline.h"

namespace rhodos::txn {

// One group-commit batch: the accumulating frame payload plus the state a
// waiting committer observes. Tickets are shared_ptrs to this, so a batch
// outlives both the queue and the pipeline's interest in it.
struct LogPipeline::Batch {
  TxnLog::BatchFramePayload frame;
  std::uint32_t commits = 0;   // commit-status records aboard
  SimTime first_append = 0;    // sim time the batch opened
  bool sealed = false;         // no further records may join
  bool resolved = false;       // force finished (or batch discarded)
  Status status;               // meaningful once resolved
};

LogPipeline::LogPipeline(TxnLog* log, SimClock* clock, std::mutex* io_mu,
                         GroupCommitConfig config)
    : log_(log), clock_(clock), io_mu_(io_mu), config_(config) {}

Result<LogPipeline::Ticket> LogPipeline::Append(const IntentionRecord& record) {
  if (!config_.enabled) {
    // Pipeline off: the paper's original rule — force at append time.
    auto ticket = std::make_shared<Batch>();
    ticket->sealed = true;
    ticket->resolved = true;
    ticket->status = log_->Append(record);
    return ticket;
  }
  std::vector<std::uint8_t> frame;
  AppendRecordFrame(frame, record);
  std::scoped_lock lk(mu_);
  const std::uint64_t open_cost =
      open_ == nullptr ? TxnLog::kBatchOverhead : 0;
  if (log_->BytesUsed() + pending_bytes_ + open_cost + frame.size() >
      log_->Capacity()) {
    return Error{ErrorCode::kNoSpace, "intention log full"};
  }
  if (open_ == nullptr) {
    open_ = std::make_shared<Batch>();
    open_->first_append = clock_->Now();
    pending_bytes_ += TxnLog::kBatchOverhead;
  }
  open_->frame.payload.insert(open_->frame.payload.end(), frame.begin(),
                              frame.end());
  ++open_->frame.records;
  pending_bytes_ += frame.size();
  if (record.kind == IntentionKind::kStatus &&
      record.status == TxnStatus::kCommit) {
    ++open_->commits;
  }
  Ticket ticket = open_;
  if (open_->commits >= config_.max_batch) {
    SealLocked(SealReason::kFull);
  } else if (clock_->Now() - open_->first_append >= config_.flush_deadline) {
    SealLocked(SealReason::kDeadline);
  }
  return ticket;
}

void LogPipeline::SealLocked(SealReason reason) {
  if (open_ == nullptr) return;
  open_->sealed = true;
  sealed_.push_back(std::move(open_));
  open_.reset();
  switch (reason) {
    case SealReason::kFull:
      ++stats_.seals_full;
      break;
    case SealReason::kDeadline:
      ++stats_.seals_deadline;
      break;
    case SealReason::kWindow:
      ++stats_.seals_window;
      break;
  }
  cv_.notify_all();
}

Status LogPipeline::AwaitDurable(const Ticket& ticket) {
  if (ticket == nullptr) {
    return {ErrorCode::kInternal, "null group-commit ticket"};
  }
  std::unique_lock lk(mu_);
  while (!ticket->resolved) {
    if (flushing_) {
      // A leader is forcing right now; it resolves or unseats on return.
      cv_.wait(lk, [&] { return ticket->resolved || !flushing_; });
      continue;
    }
    if (!ticket->sealed) {
      // An unsealed batch is the open one: we would lead its flush. Give
      // other committers a real-time window to pile on first.
      if (config_.leader_window.count() > 0) {
        const bool changed =
            cv_.wait_for(lk, config_.leader_window, [&] {
              return ticket->resolved || ticket->sealed || flushing_;
            });
        if (changed) continue;
      }
      SealLocked(SealReason::kWindow);
    }
    // Lead: force everything sealed so far in one vectored put. Frames go
    // down in append order, so a commit record can never become durable
    // before the intention records it covers.
    flushing_ = true;
    std::vector<Ticket> take(sealed_.begin(), sealed_.end());
    sealed_.clear();
    std::vector<TxnLog::BatchFramePayload> frames;
    frames.reserve(take.size());
    std::uint64_t taken_bytes = 0;
    for (const Ticket& b : take) {
      taken_bytes += TxnLog::kBatchOverhead + b->frame.payload.size();
      frames.push_back(std::move(b->frame));
    }
    lk.unlock();
    Status forced = OkStatus();
    SimTime done_at = 0;
    {
      // Lock order: the io mutex is strictly outside the pipeline mutex.
      // It also serializes the (thread-unsafe) sim clock the disk bills.
      std::scoped_lock io(*io_mu_);
      forced = log_->AppendFrames(frames);
      done_at = clock_->Now();
    }
    lk.lock();
    ++stats_.flushes;
    pending_bytes_ -= taken_bytes;
    for (std::size_t i = 0; i < take.size(); ++i) {
      Batch& b = *take[i];
      b.resolved = true;
      b.status = forced;
      if (forced.ok()) {
        ++stats_.batches;
        stats_.records += frames[i].records;
        stats_.acks += b.commits;
        obs::Observe(obs_, "txn.group_commit.batch_records",
                     static_cast<SimTime>(frames[i].records));
        obs::Observe(obs_, "txn.group_commit.ack_latency_ns",
                     done_at - b.first_append);
      }
    }
    flushing_ = false;
    cv_.notify_all();
  }
  return ticket->status;
}

void LogPipeline::DiscardPending() {
  std::scoped_lock lk(mu_);
  for (const Ticket& b : sealed_) {
    stats_.discarded_records += b->frame.records;
    b->sealed = true;
    b->resolved = true;
  }
  sealed_.clear();
  if (open_ != nullptr) {
    stats_.discarded_records += open_->frame.records;
    open_->sealed = true;
    open_->resolved = true;
    open_.reset();
  }
  pending_bytes_ = 0;
  cv_.notify_all();
}

bool LogPipeline::HasPending() const {
  std::scoped_lock lk(mu_);
  return pending_bytes_ != 0;
}

LogPipelineStats LogPipeline::stats() const {
  std::scoped_lock lk(mu_);
  return stats_;
}

void LogPipeline::ResetStats() {
  std::scoped_lock lk(mu_);
  stats_ = LogPipelineStats{};
}

}  // namespace rhodos::txn
