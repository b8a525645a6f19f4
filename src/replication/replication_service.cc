#include "replication/replication_service.h"

#include <algorithm>

#include "disk/disk_registry.h"
#include "sim/parallel.h"

namespace rhodos::replication {

using file::FileService;

namespace {
// Bounded idempotency window per group: old tokens age out FIFO.
constexpr std::size_t kTokenWindow = 128;
}  // namespace

Result<ReplicationService::Group*> ReplicationService::Find(GroupId group) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return Error{ErrorCode::kNotFound,
                 "no replica group " + std::to_string(group.value)};
  }
  return &it->second;
}

Result<const ReplicationService::Group*> ReplicationService::Find(
    GroupId group) const {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return Error{ErrorCode::kNotFound,
                 "no replica group " + std::to_string(group.value)};
  }
  return &it->second;
}

std::uint32_t ReplicationService::WriteQuorum(const Group& g) const {
  const auto n = static_cast<std::uint32_t>(g.replicas.size());
  const std::uint32_t w =
      g.policy.write_quorum != 0 ? g.policy.write_quorum : n / 2 + 1;
  return std::clamp<std::uint32_t>(w, 1, n);
}

std::uint32_t ReplicationService::ReadQuorum(const Group& g) const {
  const auto n = static_cast<std::uint32_t>(g.replicas.size());
  const std::uint32_t r =
      g.policy.read_quorum != 0 ? g.policy.read_quorum : n / 2 + 1;
  return std::clamp<std::uint32_t>(r, 1, n);
}

bool ReplicationService::DiskReachable(DiskId disk) const {
  auto server = disks_->Get(disk);
  return server.ok() && (*server)->Reachable();
}

bool ReplicationService::Behind(const Group& g, const Replica& r) {
  return r.info.version != g.version || r.info.epoch != g.epoch ||
         r.info.suspected_down || r.dirty || !r.hints.empty();
}

bool ReplicationService::IsCurrent(const Group& g, const Replica& r) const {
  return r.info.version == g.version && r.info.epoch == g.epoch &&
         !r.info.suspected_down && !r.dirty && DiskReachable(r.info.disk);
}

void ReplicationService::BumpEpoch(Group& g) {
  ++g.epoch;
  ++stats_.epoch_bumps;
  // Clean, current, reachable replicas join the new epoch; everyone else
  // keeps its old epoch and is thereby fenced out of current-version
  // serving until repair readmits it.
  for (Replica& r : g.replicas) {
    if (!r.info.suspected_down && !r.dirty && r.info.version == g.version &&
        DiskReachable(r.info.disk)) {
      r.info.epoch = g.epoch;
    }
  }
}

bool ReplicationService::Suspect(Replica& r) {
  if (r.info.suspected_down) return false;
  r.info.suspected_down = true;
  return true;
}

void ReplicationService::QueueHint(GroupId id, Group& g, Replica& r,
                                   std::uint64_t version,
                                   std::uint64_t offset,
                                   std::span<const std::uint8_t> in) {
  (void)id;
  if (r.hint_overflow) {
    ++stats_.hints_dropped;
    return;
  }
  if (r.hints.size() >= config_.max_hints_per_replica) {
    // Overflow: the queue can no longer cover the replica's gap; drop the
    // backlog and demote the replica to full-copy repair.
    stats_.hints_dropped += r.hints.size() + 1;
    r.hints.clear();
    r.hint_overflow = true;
    return;
  }
  Hint h;
  h.version = version;
  h.offset = offset;
  h.data.assign(in.begin(), in.end());
  h.queued_at = clock_->Now();
  r.hints.push_back(std::move(h));
  ++stats_.hints_queued;
  (void)g;
}

void ReplicationService::RememberToken(Group& g, std::uint64_t token,
                                       const WriteAck& ack) {
  if (token == 0) return;
  g.token_acks[token] = ack;
  g.token_order.push_back(token);
  while (g.token_order.size() > kTokenWindow) {
    g.token_acks.erase(g.token_order.front());
    g.token_order.pop_front();
  }
}

Result<GroupId> ReplicationService::CreateReplicated(
    file::ServiceType type, std::uint32_t replica_count,
    std::uint64_t size_hint, GroupPolicy policy) {
  if (replica_count == 0) {
    return Error{ErrorCode::kInvalidArgument, "need at least one replica"};
  }
  Group group;
  group.policy = policy;
  for (std::uint32_t i = 0; i < replica_count; ++i) {
    auto file = files_(FileId{}).Create(type, size_hint);
    if (!file.ok()) {
      // Roll back the copies we already made.
      for (const Replica& r : group.replicas) {
        (void)files_(r.info.file).Delete(r.info.file);
      }
      return Error{file.error()};
    }
    Replica r;
    r.info = ReplicaInfo{*file, file::FileDisk(*file), 0, group.epoch, false};
    group.replicas.push_back(std::move(r));
  }
  const GroupId id{next_group_++};
  groups_.emplace(id, std::move(group));
  return id;
}

Status ReplicationService::DeleteReplicated(GroupId group) {
  RHODOS_ASSIGN_OR_RETURN(Group * g, Find(group));
  Status result = OkStatus();
  for (const Replica& r : g->replicas) {
    const Status st = files_(r.info.file).Delete(r.info.file);
    if (!st.ok()) result = st;
  }
  groups_.erase(group);
  return result;
}

Result<WriteAck> ReplicationService::Write(GroupId group,
                                           std::uint64_t offset,
                                           std::span<const std::uint8_t> in,
                                           std::uint64_t token) {
  obs::OpScope op(obs::TracerOf(obs_), "replication", "write");
  RHODOS_ASSIGN_OR_RETURN(Group * g, Find(group));
  ++stats_.writes;

  // Idempotency: a retried exchange whose first delivery committed replays
  // the recorded ack instead of applying the bytes a second time.
  if (token != 0) {
    if (auto it = g->token_acks.find(token); it != g->token_acks.end()) {
      ++stats_.token_replays;
      WriteAck ack = it->second;
      ack.replayed = true;
      return ack;
    }
  }

  const std::uint32_t quorum = WriteQuorum(*g);
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < g->replicas.size(); ++i) {
    if (IsCurrent(*g, g->replicas[i])) candidates.push_back(i);
  }
  if (candidates.size() < quorum) {
    // Degraded mode: fail fast, with no side effects, instead of silently
    // succeeding on fewer copies than the policy promises.
    ++stats_.unavailable_writes;
    return Error{ErrorCode::kUnavailable,
                 "replica group below write quorum (" +
                     std::to_string(candidates.size()) + " live of W=" +
                     std::to_string(quorum) + ")"};
  }

  const std::uint64_t new_version = g->version + 1;
  std::vector<std::size_t> acked, failed;
  std::vector<SimTime> ack_ends;
  {
    // Quorum fan-out: the replicas live on independent disks, so the copies
    // proceed concurrently, and the caller returns when the W-th fastest
    // replica acks — a slow straggler no longer paces every write (E20).
    // No intention-log checkpoint may run in a lane: each replica asks.
    for (std::size_t i : candidates) {
      const FileId file = g->replicas[i].info.file;
      RHODOS_RETURN_IF_ERROR(files_(file).AwaitLog(file, /*bitmaps=*/true));
    }
    sim::ParallelSection section(clock_);
    for (std::size_t i : candidates) {
      Replica& r = g->replicas[i];
      section.BeginLane();
      auto n = files_(r.info.file).Write(r.info.file, offset, in);
      const SimTime end = section.EndLane();
      if (n.ok() && *n == in.size()) {
        acked.push_back(i);
        ack_ends.push_back(end);
      } else {
        failed.push_back(i);
      }
    }
    if (acked.size() >= quorum) {
      std::nth_element(ack_ends.begin(), ack_ends.begin() + (quorum - 1),
                       ack_ends.end());
      section.CommitAt(ack_ends[quorum - 1]);
    } else {
      section.Commit();
    }
  }

  const SimTime now = clock_->Now();
  if (acked.empty()) {
    bool newly_suspected = false;
    for (std::size_t i : failed) {
      Replica& r = g->replicas[i];
      r.dirty = true;  // the write may have torn this replica's bytes
      newly_suspected |= Suspect(r);
    }
    if (newly_suspected) BumpEpoch(*g);
    ++stats_.unavailable_writes;
    return Error{ErrorCode::kUnavailable, "no replica accepted the write"};
  }

  // Roll forward: at least one replica holds the new bytes, so the group
  // version advances even when the quorum was missed — the acked replicas
  // are the freshest copies, and hints converge the rest.
  g->version = new_version;
  g->size = std::max(g->size, offset + in.size());
  g->version_time = now;
  for (std::size_t i : acked) {
    Replica& r = g->replicas[i];
    r.info.version = new_version;
    r.ack_time = now;
  }
  bool newly_suspected = false;
  for (std::size_t i : failed) {
    Replica& r = g->replicas[i];
    r.dirty = true;
    newly_suspected |= Suspect(r);
  }
  if (newly_suspected) BumpEpoch(*g);

  // Hinted handoff: every replica that missed this committed write gets the
  // (version, offset, bytes) queued for later replay.
  for (std::size_t i = 0; i < g->replicas.size(); ++i) {
    Replica& r = g->replicas[i];
    if (r.info.version != new_version) {
      QueueHint(group, *g, r, new_version, offset, in);
    }
  }

  WriteAck ack;
  ack.bytes = in.size();
  ack.version = new_version;
  ack.acks = static_cast<std::uint32_t>(acked.size());
  ack.outcome = acked.size() == g->replicas.size() ? WriteOutcome::kFull
                                                   : WriteOutcome::kDegraded;
  if (ack.outcome == WriteOutcome::kDegraded) ++stats_.degraded_writes;

  if (acked.size() < quorum) {
    // The commit rolled forward, but the caller's quorum was not met: the
    // client sees a typed failure and may retry (idempotently, by token).
    ++stats_.unavailable_writes;
    return Error{ErrorCode::kUnavailable,
                 "write reached only " + std::to_string(acked.size()) +
                     " replicas of W=" + std::to_string(quorum)};
  }
  RememberToken(*g, token, ack);
  return ack;
}

Result<ReadAck> ReplicationService::Read(GroupId group, std::uint64_t offset,
                                         std::span<std::uint8_t> out) {
  obs::OpScope op(obs::TracerOf(obs_), "replication", "read");
  RHODOS_ASSIGN_OR_RETURN(Group * g, Find(group));
  ++stats_.reads;

  // The observed set: up to R live replicas, current ones first so
  // correctness never depends on probe order.
  const std::uint32_t quorum = ReadQuorum(*g);
  std::vector<std::size_t> observed;
  for (std::size_t i = 0; i < g->replicas.size() && observed.size() < quorum;
       ++i) {
    if (IsCurrent(*g, g->replicas[i])) observed.push_back(i);
  }
  for (std::size_t i = 0; i < g->replicas.size() && observed.size() < quorum;
       ++i) {
    const Replica& r = g->replicas[i];
    if (!IsCurrent(*g, r) && !r.info.suspected_down && !r.dirty &&
        DiskReachable(r.info.disk)) {
      observed.push_back(i);
    }
  }

  bool newly_suspected = false;
  for (std::size_t i : observed) {
    Replica& r = g->replicas[i];
    if (!IsCurrent(*g, r)) break;  // laggards sort after current replicas
    auto n = files_(r.info.file).Read(r.info.file, offset, out);
    if (!n.ok()) {
      newly_suspected |= Suspect(r);
      continue;
    }
    if (newly_suspected) BumpEpoch(*g);
    if (i != 0) ++stats_.failovers;
    // Read-repair: any live laggard this read observed converges now, so
    // divergence seen by a read never outlives it. Suspected replicas are
    // left to the recovery manager's anti-entropy round.
    for (std::size_t j : observed) {
      Replica& lag = g->replicas[j];
      if (lag.info.suspected_down) continue;
      if (lag.info.version != g->version || lag.info.epoch != g->epoch) {
        if (CatchUp(group, *g, lag).ok()) ++stats_.read_repairs;
      }
    }
    ReadAck ack;
    ack.bytes = *n;
    ack.version = g->version;
    return ack;
  }
  if (newly_suspected) BumpEpoch(*g);

  // Degraded mode: no live replica carries the current version at the
  // current epoch. Serve the freshest reachable clean copy, explicitly
  // flagged stale.
  std::vector<std::size_t> fallback;
  for (std::size_t i = 0; i < g->replicas.size(); ++i) {
    const Replica& r = g->replicas[i];
    if (!r.dirty && DiskReachable(r.info.disk)) fallback.push_back(i);
  }
  std::stable_sort(fallback.begin(), fallback.end(),
                   [&](std::size_t a, std::size_t b) {
                     return g->replicas[a].info.version >
                            g->replicas[b].info.version;
                   });
  for (std::size_t i : fallback) {
    Replica& r = g->replicas[i];
    auto n = files_(r.info.file).Read(r.info.file, offset, out);
    if (!n.ok()) continue;
    ReadAck ack;
    ack.bytes = *n;
    ack.version = r.info.version;
    ack.stale = r.info.version != g->version || r.info.epoch != g->epoch;
    if (ack.stale) {
      ++stats_.stale_reads;
      if (g->version_time >= r.ack_time) {
        obs::Observe(obs_, "replication.staleness_ns",
                     g->version_time - r.ack_time);
      }
    } else if (i != 0) {
      ++stats_.failovers;
    }
    return ack;
  }
  return Error{ErrorCode::kUnavailable, "no replica is readable"};
}

Status ReplicationService::CatchUp(GroupId id, Group& g, Replica& r) {
  if (!DiskReachable(r.info.disk)) {
    return {ErrorCode::kUnavailable, "replica disk unreachable"};
  }
  if (r.info.version == g.version && !r.dirty && r.hints.empty()) {
    // Nothing to copy: the replica only needs readmission to the epoch.
    if (r.info.suspected_down || r.info.epoch != g.epoch) {
      r.info.suspected_down = false;
      BumpEpoch(g);
    }
    return OkStatus();
  }

  // Hinted handoff: replay the queued writes when they cover the replica's
  // whole gap, in version order. Cheaper than a full copy — proportional to
  // what was missed, not to the file size.
  bool chain_covers = !r.dirty && !r.hint_overflow && !r.hints.empty() &&
                      r.hints.front().version == r.info.version + 1 &&
                      r.hints.back().version == g.version;
  if (chain_covers) {
    for (std::size_t i = 1; i < r.hints.size(); ++i) {
      if (r.hints[i].version != r.hints[i - 1].version + 1) {
        chain_covers = false;
        break;
      }
    }
  }
  if (chain_covers) {
    const SimTime now = clock_->Now();
    while (!r.hints.empty()) {
      const Hint& h = r.hints.front();
      auto n = files_(r.info.file).Write(r.info.file, h.offset, h.data);
      if (!n.ok() || *n != h.data.size()) {
        r.dirty = true;
        if (Suspect(r)) BumpEpoch(g);
        return n.ok() ? Status{ErrorCode::kUnavailable, "short hint replay"}
                      : Status{n.error().code, n.error().message};
      }
      ++stats_.hints_replayed;
      if (now >= h.queued_at) {
        obs::Observe(obs_, "replication.hint_age_ns", now - h.queued_at);
      }
      r.info.version = h.version;
      r.hints.pop_front();
    }
    r.ack_time = now;
    r.info.suspected_down = false;
    BumpEpoch(g);  // readmission is a membership change
    ++stats_.repairs;
    return OkStatus();
  }
  return FullCopy(id, g, r);
}

Status ReplicationService::FullCopy(GroupId id, Group& g, Replica& r) {
  // Find the freshest readable replica. Prefer one that is clean and not
  // suspected: a suspected or dirty replica at the current version may
  // carry a torn write from the failure that got it there, so it is a
  // source of last resort.
  const Replica* source = nullptr;
  for (int pass = 0; pass < 2 && source == nullptr; ++pass) {
    for (const Replica& cand : g.replicas) {
      if (&cand == &r || cand.info.version != g.version) continue;
      if (pass == 0 && (cand.info.suspected_down || cand.dirty)) continue;
      if (!DiskReachable(cand.info.disk)) continue;
      if (files_(cand.info.file).GetAttributes(cand.info.file).ok()) {
        source = &cand;
        break;
      }
    }
  }
  if (source == nullptr) {
    return {ErrorCode::kUnavailable, "no replica holds the current version"};
  }
  FileService& source_owner = files_(source->info.file);
  FileService& target_owner = files_(r.info.file);
  auto attrs = source_owner.GetAttributes(source->info.file);
  if (!attrs.ok()) return Error{attrs.error()};
  const std::uint64_t size = attrs->size;

  // Copy in extent-sized chunks, not single blocks: each chunk read/write
  // lands on the file service as one batched, vectored transfer, so the
  // rebuild costs a handful of disk references instead of one per block.
  const std::uint64_t chunk_bytes = std::max<std::uint64_t>(
      kBlockSize,
      std::uint64_t{source_owner.config().extent_blocks} * kBlockSize);
  std::vector<std::uint8_t> buf(chunk_bytes);
  const std::size_t replica_index =
      static_cast<std::size_t>(&r - g.replicas.data());
  std::uint64_t chunk = 0;
  for (std::uint64_t off = 0; off < size; off += chunk_bytes, ++chunk) {
    if (repair_probe_) repair_probe_(id, replica_index, chunk);
    const std::uint64_t n = std::min<std::uint64_t>(chunk_bytes, size - off);
    auto got = source_owner.Read(source->info.file, off, {buf.data(), n});
    if (!got.ok()) return Error{got.error()};
    auto put = target_owner.Write(r.info.file, off, {buf.data(), *got});
    if (!put.ok() || *put != *got) {
      r.dirty = true;
      if (Suspect(r)) BumpEpoch(g);
      return put.ok() ? Status{ErrorCode::kUnavailable, "short repair write"}
                      : Status{put.error().code, put.error().message};
    }
  }
  if (size == 0) (void)target_owner.Resize(r.info.file, 0);
  r.info.version = g.version;
  r.ack_time = clock_->Now();
  r.hints.clear();
  r.hint_overflow = false;
  r.dirty = false;
  if (r.info.suspected_down || r.info.epoch != g.epoch) {
    r.info.suspected_down = false;
    BumpEpoch(g);
  }
  ++stats_.repairs;
  return OkStatus();
}

Status ReplicationService::Repair(GroupId group) {
  obs::OpScope op(obs::TracerOf(obs_), "replication", "repair");
  RHODOS_ASSIGN_OR_RETURN(Group * g, Find(group));
  std::vector<Replica*> behind;
  for (Replica& r : g->replicas) {
    if (Behind(*g, r)) behind.push_back(&r);
  }
  if (behind.empty()) return OkStatus();
  // The lagging replicas rebuild concurrently (they sit on different
  // disks); after the first lane the source chunks come from the block
  // cache, so the overlapped copies do not re-reference the source disk.
  // No intention-log checkpoint may run in a lane: each copy asks first.
  for (const Replica* r : behind) {
    RHODOS_RETURN_IF_ERROR(
        files_(r->info.file).AwaitLog(r->info.file, /*bitmaps=*/true));
  }
  Status result = OkStatus();
  sim::ParallelSection section(clock_);
  for (Replica* r : behind) {
    section.BeginLane();
    if (auto st = CatchUp(group, *g, *r); !st.ok()) result = st;
    section.EndLane();
  }
  section.Commit();
  return result;
}

std::size_t ReplicationService::SyncGroup(GroupId group, bool full_copies) {
  auto g_or = Find(group);
  if (!g_or.ok()) return 0;
  Group* g = *g_or;
  std::size_t caught_up = 0;
  for (Replica& r : g->replicas) {
    if (!Behind(*g, r) || !DiskReachable(r.info.disk)) continue;
    if (!full_copies) {
      // Cheap pass: only hint replay or plain readmission; a replica whose
      // gap needs a full copy waits for the periodic full scan.
      const bool hint_covered = !r.dirty && !r.hint_overflow &&
                                (!r.hints.empty() ||
                                 r.info.version == g->version);
      if (!hint_covered) continue;
    }
    if (CatchUp(group, *g, r).ok()) ++caught_up;
  }
  return caught_up;
}

std::size_t ReplicationService::MarkDiskDown(DiskId disk) {
  std::size_t marked = 0;
  for (auto& [id, g] : groups_) {
    bool changed = false;
    for (Replica& r : g.replicas) {
      if (r.info.disk == disk && Suspect(r)) {
        ++marked;
        changed = true;
      }
    }
    if (changed) BumpEpoch(g);
  }
  return marked;
}

std::size_t ReplicationService::MarkDiskUp(DiskId disk) {
  std::size_t cleared = 0;
  for (auto& [id, g] : groups_) {
    bool changed = false;
    for (Replica& r : g.replicas) {
      if (r.info.disk == disk && r.info.suspected_down &&
          r.info.version == g.version && !r.dirty) {
        r.info.suspected_down = false;
        ++cleared;
        changed = true;
      }
    }
    if (changed) BumpEpoch(g);
  }
  return cleared;
}

std::vector<GroupId> ReplicationService::GroupIds() const {
  std::vector<GroupId> out;
  out.reserve(groups_.size());
  for (const auto& [id, g] : groups_) out.push_back(id);
  std::sort(out.begin(), out.end(),
            [](GroupId a, GroupId b) { return a.value < b.value; });
  return out;
}

Result<bool> ReplicationService::AllCurrent(GroupId group) const {
  RHODOS_ASSIGN_OR_RETURN(const Group* g, Find(group));
  return std::none_of(g->replicas.begin(), g->replicas.end(),
                      [g](const Replica& r) { return Behind(*g, r); });
}

std::uint64_t ReplicationService::TotalPendingHints() const {
  std::uint64_t pending = 0;
  for (const auto& [id, g] : groups_) {
    for (const Replica& r : g.replicas) pending += r.hints.size();
  }
  return pending;
}

Result<std::vector<ReplicaInfo>> ReplicationService::Replicas(
    GroupId group) const {
  RHODOS_ASSIGN_OR_RETURN(const Group* g, Find(group));
  std::vector<ReplicaInfo> out;
  out.reserve(g->replicas.size());
  for (const Replica& r : g->replicas) out.push_back(r.info);
  return out;
}

Result<std::uint64_t> ReplicationService::CurrentVersion(
    GroupId group) const {
  RHODOS_ASSIGN_OR_RETURN(const Group* g, Find(group));
  return g->version;
}

Result<std::uint64_t> ReplicationService::CurrentEpoch(GroupId group) const {
  RHODOS_ASSIGN_OR_RETURN(const Group* g, Find(group));
  return g->epoch;
}

}  // namespace rhodos::replication
