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

namespace {

// Bounds on the write-behind groups that wait for a later force. A logged
// block leaves the file service's block pool only through a synchronous
// write-back on a read, so at most kMaxWaitingGroups wait; and nothing
// waits once the log is within 1/kNoWaitLogShare of full, so the
// checkpoint a full log triggers lands at most one force's worth.
constexpr std::size_t kMaxWaitingGroups = 8;
constexpr std::uint64_t kNoWaitLogShare = 32;

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
  auto lane_of = [&key](const Owed& o) {
    return key(o.disk, !o.both_devices);
  };

  // References per lane. The force and the runs set the flush's depth.
  std::vector<std::pair<LaneKey, std::size_t>> load;
  auto refs = [&load](LaneKey lane) -> std::size_t& {
    auto it = std::find_if(load.begin(), load.end(),
                           [&lane](const auto& l) { return l.first == lane; });
    if (it == load.end()) it = load.insert(load.end(), {lane, 0});
    return it->second;
  };
  std::size_t depth = 0;
  for (const auto& b : batches) {
    for (const FreshRun& run : b->runs) {
      depth = std::max(depth, ++refs(key(run.disk->id(), false)));
    }
  }
  if (!frames.empty()) {
    depth = std::max(depth, ++refs(key(log_disk_->id(), false)));
  }
  // The groups, as runs of consecutive writes. A group of data blocks
  // alone may wait for a later force while the log has room; a table rides
  // the next force, and a flush with no force (a checkpoint) carries
  // everything. Beyond kMaxWaitingGroups, the oldest groups ride.
  struct Group {
    std::size_t begin, end;
    bool may_wait;
  };
  std::vector<Group> groups;
  const bool room = !frames.empty() &&
                    log_->BytesUsed() + PendingBytes() +
                            log_->Capacity() / kNoWaitLogShare <
                        log_->Capacity();
  std::size_t waitable = 0;
  for (std::size_t i = 0, end = 0; i < owed.size(); i = end) {
    end = i + 1;
    while (end < owed.size() && owed[end].group == owed[i].group) ++end;
    const bool data_only = std::none_of(
        owed.begin() + static_cast<std::ptrdiff_t>(i),
        owed.begin() + static_cast<std::ptrdiff_t>(end),
        [](const Owed& o) { return o.both_devices; });
    groups.push_back({i, end, room && data_only});
    waitable += groups.back().may_wait ? 1 : 0;
  }
  for (std::size_t must_ride = waitable - std::min(waitable, kMaxWaitingGroups);
       Group& g : groups) {
    if (must_ride > 0 && g.may_wait) {
      g.may_wait = false;
      --must_ride;
    }
  }
  // What rides: every group that may not wait, then each that may, oldest
  // first, if no lane it joins grows past the depth or carries anything
  // else (a group longer than the depth would otherwise never ride).
  std::vector<char> rides(owed.size(), 1);
  for (const Group& g : groups) {
    for (std::size_t k = g.begin; k < g.end && !g.may_wait; ++k) {
      if (!owed[k].in_order) ++refs(lane_of(owed[k]));
    }
  }
  for (const Group& g : groups) {
    if (!g.may_wait) continue;
    const auto first = owed.begin() + static_cast<std::ptrdiff_t>(g.begin);
    const auto last = owed.begin() + static_cast<std::ptrdiff_t>(g.end);
    for (auto o = first; o != last; ++o) ++refs(lane_of(*o));
    const bool fits = std::all_of(first, last, [&](const Owed& o) {
      const LaneKey lane = lane_of(o);
      const std::size_t n = refs(lane);
      return n <= depth ||
             n == static_cast<std::size_t>(std::count_if(
                      first, last,
                      [&](const Owed& w) { return lane_of(w) == lane; }));
    });
    if (fits) continue;
    for (std::size_t k = g.begin; k < g.end; ++k) {
      --refs(lane_of(owed[k]));
      rides[k] = 0;
    }
  }

  Status forced;
  sim::PerDeviceFanOut<LaneKey, Item> lanes;
  for (std::size_t i = 0; i < owed.size(); ++i) {
    if (rides[i] && !owed[i].in_order) {
      lanes.Add(lane_of(owed[i]), Item{&owed[i], nullptr, owed[i].status});
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
  for (std::size_t i = 0; i < owed.size(); ++i) {
    if (rides[i] && owed[i].in_order) *owed[i].status = owed[i].write();
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
