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
                         std::recursive_mutex* io_mu, GroupCommitConfig config)
    : log_(log),
      log_disk_(log_disk),
      clock_(log_disk->clock()),
      io_mu_(io_mu),
      config_(config) {}

namespace {

// A flush lane: one disk's main device, or both of its devices.
struct LaneKey {
  DiskId disk;
  bool main_only;
  friend bool operator==(const LaneKey&, const LaneKey&) = default;
};

}  // namespace

Status LogPipeline::WriteAndForce(
    std::span<const std::shared_ptr<Batch>> batches,
    std::span<const TxnLog::BatchFramePayload> frames) {
  const CoveredWrites covered;
  std::vector<Owed> owed;
  if (collect_) collect_(owed);
  // An item with neither a write nor a run is the force.
  struct Item {
    const Owed* write;
    const FreshRun* run;
    Status* status;
  };
  // Disks where something writes both copies: all their work shares a lane.
  std::vector<DiskId> both;
  auto note_both = [&both](DiskId disk) {
    if (std::find(both.begin(), both.end(), disk) == both.end()) {
      both.push_back(disk);
    }
  };
  for (const Owed& o : owed) {
    if (o.both_devices && !o.in_order) note_both(o.disk);
  }
  for (const auto& b : batches) {
    for (const FreshRun& run : b->runs) note_both(run.disk->id());
  }
  auto key = [&both](DiskId disk, bool main_only) {
    return LaneKey{disk, main_only && std::find(both.begin(), both.end(),
                                                disk) == both.end()};
  };
  Status forced;
  sim::PerDeviceFanOut<LaneKey, Item> lanes;
  for (const Owed& o : owed) {
    if (!o.in_order) {
      lanes.Add(key(o.disk, !o.both_devices), Item{&o, nullptr, o.status});
    }
  }
  for (const auto& b : batches) {
    for (std::size_t i = 0; i < b->runs.size(); ++i) {
      lanes.Add(key(b->runs[i].disk->id(), false),
                Item{nullptr, &b->runs[i], &b->run_status[i]});
    }
  }
  if (!frames.empty()) {
    lanes.Add(key(log_disk_->id(), false), Item{nullptr, nullptr, &forced});
  }
  (void)lanes.Run(clock_, [&](LaneKey, const std::vector<Item>& items) {
    for (const Item& item : items) {
      if (item.write != nullptr) {
        *item.status = item.write->write();
      } else if (item.run != nullptr) {
        const FreshRun& run = *item.run;
        const auto fragments =
            static_cast<std::uint32_t>(run.image.size() / kFragmentSize);
        *item.status = run.disk->PutFreshBlock(run.first, fragments, run.image);
      } else {
        *item.status = log_->AppendFrames(frames);
      }
    }
    return OkStatus();
  });
  for (const Owed& o : owed) {
    if (o.in_order) *o.status = o.write();
  }
  for (const auto& b : batches) b->runs.clear();
  if (settle_) settle_();
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
  // The generation changes only at a checkpoint that finds the pipeline
  // empty, or at recovery after it was emptied, so a frame never outlives
  // the generation it is framed in.
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

std::uint64_t LogPipeline::PendingBytes() const {
  std::scoped_lock lk(mu_);
  return pending_bytes_;
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
