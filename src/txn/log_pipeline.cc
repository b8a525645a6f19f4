#include "txn/log_pipeline.h"

#include <algorithm>
#include <iterator>

#include "sim/parallel.h"

namespace rhodos::txn {

// One group-commit batch: the accumulating frame payload and fresh runs,
// plus the state a waiting committer observes. Tickets share it, so a
// batch outlives both the queue and the pipeline's interest in it.
struct LogPipeline::Batch {
  TxnLog::BatchFramePayload frame;
  std::vector<FreshRun> runs;      // written by the flush that forces
  std::vector<Status> run_status;  // per run, once resolved
  std::uint32_t commits = 0;   // commit-status records aboard
  SimTime first_append = 0;    // sim time the batch opened
  bool sealed = false;         // no further records may join
  bool resolved = false;       // force finished (or batch discarded)
  Status status;               // the force's, meaningful once resolved
};

LogPipeline::LogPipeline(TxnLog* log, disk::DiskServer* log_disk,
                         std::mutex* io_mu, GroupCommitConfig config)
    : log_(log),
      log_disk_(log_disk),
      clock_(log_disk->clock()),
      io_mu_(io_mu),
      config_(config) {}

Status LogPipeline::WriteAndForce(
    std::span<const std::shared_ptr<Batch>> batches,
    std::span<const TxnLog::BatchFramePayload> frames) {
  // An item without a run is the force.
  struct Item {
    const FreshRun* run;
    Status* status;
  };
  Status forced;
  sim::PerDeviceFanOut<DiskId, Item> lanes;
  for (const auto& b : batches) {
    for (std::size_t i = 0; i < b->runs.size(); ++i) {
      lanes.Add(b->runs[i].disk->id(), Item{&b->runs[i], &b->run_status[i]});
    }
  }
  lanes.Add(log_disk_->id(), Item{nullptr, &forced});
  (void)lanes.Run(clock_, [&](DiskId, const std::vector<Item>& items) {
    for (const Item& item : items) {
      if (item.run == nullptr) {
        *item.status = log_->AppendFrames(frames);
        continue;
      }
      // No barrier: the force beside the run makes a pending log reset
      // durable, and until it lands nothing refers to the run.
      const FreshRun& run = *item.run;
      const auto fragments =
          static_cast<std::uint32_t>(run.image.size() / kFragmentSize);
      *item.status = run.disk->PutFreshBlock(run.first, fragments, run.image,
                                             disk::Barrier::kSkip);
    }
    return OkStatus();
  });
  for (const auto& b : batches) b->runs.clear();
  return forced;
}

Result<LogPipeline::Ticket> LogPipeline::Append(const IntentionRecord& record,
                                                std::vector<FreshRun> runs) {
  if (!config_.enabled) {
    // Pipeline off: the paper's original rule — force at append time.
    auto batch = std::make_shared<Batch>();
    AppendRecordFrame(batch->frame.payload, record, log_->generation());
    batch->frame.records = 1;
    batch->runs = std::move(runs);
    batch->run_status.resize(batch->runs.size());
    batch->sealed = true;
    batch->resolved = true;
    batch->status = WriteAndForce({&batch, 1}, {&batch->frame, 1});
    return Ticket{batch, 0, batch->run_status.size()};
  }
  // The generation changes only at quiescence, when the pipeline has just
  // been emptied, so a frame never outlives the generation it is framed in.
  std::vector<std::uint8_t> frame;
  AppendRecordFrame(frame, record, log_->generation());
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
  const Ticket ticket{open_, open_->runs.size(),
                      open_->runs.size() + runs.size()};
  std::move(runs.begin(), runs.end(), std::back_inserter(open_->runs));
  open_->run_status.resize(open_->runs.size());
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
  Batch* const batch = ticket.batch.get();
  if (batch == nullptr) {
    return {ErrorCode::kInternal, "null group-commit ticket"};
  }
  std::unique_lock lk(mu_);
  while (!batch->resolved) {
    if (flushing_) {
      // A leader is forcing right now; it resolves or unseats on return.
      cv_.wait(lk, [&] { return batch->resolved || !flushing_; });
      continue;
    }
    if (!batch->sealed) {
      // An unsealed batch is the open one: we would lead its flush. Give
      // other committers a real-time window to pile on first.
      if (config_.leader_window.count() > 0) {
        const bool changed =
            cv_.wait_for(lk, config_.leader_window, [&] {
              return batch->resolved || batch->sealed || flushing_;
            });
        if (changed) continue;
      }
      SealLocked(SealReason::kWindow);
    }
    // Lead: force everything sealed so far in one vectored put, and write
    // the fresh runs the batches carry beside it. Frames go down in append
    // order, so a commit record can never become durable before the
    // intention records it covers.
    flushing_ = true;
    std::vector<std::shared_ptr<Batch>> take(sealed_.begin(), sealed_.end());
    sealed_.clear();
    std::vector<TxnLog::BatchFramePayload> frames;
    frames.reserve(take.size());
    std::uint64_t taken_bytes = 0;
    for (const auto& b : take) {
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
      forced = WriteAndForce(take, frames);
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
  if (!batch->status.ok()) return batch->status;
  for (std::size_t i = ticket.first_run; i < ticket.end_run; ++i) {
    if (!batch->run_status[i].ok()) return batch->run_status[i];
  }
  return OkStatus();
}

void LogPipeline::DiscardPending() {
  std::scoped_lock lk(mu_);
  for (const auto& b : sealed_) {
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
