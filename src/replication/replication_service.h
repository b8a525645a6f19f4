// The RHODOS replication service (paper Fig. 1, §2.1).
//
// The design goal list requires "the provision to support the concept of
// file replication" for reliability; the architecture places a replication
// service beside the naming service above the file services. The paper does
// not pin down a protocol, so this implementation uses quorum replication
// with per-replica version vectors:
//
//  * a replicated file is a group of ordinary RHODOS files, each placed on
//    a different disk where possible;
//  * a write commits once W of the N replicas acknowledge it (per-group
//    policy; the default W is a majority) and bumps the group version;
//  * a monotonic group epoch is bumped on every membership/suspicion
//    change; a partitioned replica keeps its old epoch, so it can never
//    serve or accept a write as current after the group moved on;
//  * a read consults up to R live replicas, serves the current version and
//    inline-repairs any laggard it observed (read-repair);
//  * writes missed by a suspected or unreachable replica are queued as
//    hints and drained by the recovery manager's anti-entropy round on
//    every tick (hinted handoff); a replica whose hint queue overflowed is
//    rebuilt by full copy in the periodic full scan;
//  * below W live replicas a write fails fast with kUnavailable — no
//    silent success-on-one; a read with no live current replica falls back
//    to the freshest reachable copy with an explicit `stale` flag.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "file/file_service.h"
#include "obs/observability.h"

namespace rhodos::replication {

struct ReplicaGroupTag {};
using GroupId = StrongId<ReplicaGroupTag, std::uint64_t>;

// Per-group quorum sizes. Zero means "majority of N" (the default policy);
// values are clamped to the replica count at use.
struct GroupPolicy {
  std::uint32_t write_quorum = 0;
  std::uint32_t read_quorum = 0;
};

struct ReplicationConfig {
  // Hints kept per lagging replica before the queue overflows and the
  // replica is demoted to full-copy repair.
  std::uint32_t max_hints_per_replica = 64;
};

struct ReplicaInfo {
  FileId file{};
  DiskId disk{};
  std::uint64_t version = 0;  // last version this replica acknowledged
  std::uint64_t epoch = 0;    // group epoch the replica last joined
  bool suspected_down = false;
};

// How a committed write reached the group.
enum class WriteOutcome : std::uint8_t {
  kFull,      // every replica acknowledged
  kDegraded,  // quorum reached; at least one replica missed (hinted)
};

struct WriteAck {
  std::uint64_t bytes = 0;
  std::uint64_t version = 0;  // the version this write committed as
  std::uint32_t acks = 0;     // replicas that acknowledged
  WriteOutcome outcome = WriteOutcome::kFull;
  bool replayed = false;  // idempotency-token replay; nothing re-applied
};

struct ReadAck {
  std::uint64_t bytes = 0;
  std::uint64_t version = 0;  // version actually served
  bool stale = false;  // best-effort fallback: older than the group version
};

struct ReplicationStats {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t degraded_writes = 0;  // quorum met, >=1 replica missed
  std::uint64_t unavailable_writes = 0;  // failed: below the write quorum
  std::uint64_t failovers = 0;  // read served by a non-first replica
  std::uint64_t stale_reads = 0;   // degraded fallback served an old version
  std::uint64_t read_repairs = 0;  // laggards repaired inline by reads
  std::uint64_t repairs = 0;       // replicas re-synced (any path)
  std::uint64_t hints_queued = 0;
  std::uint64_t hints_replayed = 0;
  std::uint64_t hints_dropped = 0;  // overflow: queue cleared, full repair
  std::uint64_t epoch_bumps = 0;
  std::uint64_t token_replays = 0;  // duplicate writes absorbed by token
};

inline constexpr obs::CounterField<ReplicationStats> kReplicationCounters[] = {
    {"replication.writes", &ReplicationStats::writes},
    {"replication.reads", &ReplicationStats::reads},
    {"replication.degraded_writes", &ReplicationStats::degraded_writes},
    {"replication.degraded_reads", &ReplicationStats::failovers},
    {"replication.repairs", &ReplicationStats::repairs},
    {"replication.unavailable_writes", &ReplicationStats::unavailable_writes},
    {"replication.stale_reads", &ReplicationStats::stale_reads},
    {"replication.read_repairs", &ReplicationStats::read_repairs},
    {"replication.hints_queued", &ReplicationStats::hints_queued},
    {"replication.hints_replayed", &ReplicationStats::hints_replayed},
    {"replication.hints_dropped", &ReplicationStats::hints_dropped},
    {"replication.epoch_bumps", &ReplicationStats::epoch_bumps},
    {"replication.token_replays", &ReplicationStats::token_replays},
};

class ReplicationService {
 public:
  // Each replica is an ordinary file, reached through `files`: the file
  // service that serves it right now. `disks` and `clock` are the shared
  // substrate every file service sits on.
  ReplicationService(disk::DiskRegistry* disks, SimClock* clock,
                     file::FileResolver files, ReplicationConfig config = {})
      : disks_(disks),
        clock_(clock),
        files_(std::move(files)),
        config_(config) {}

  // Creates a group of `replica_count` copies. Each copy is a normal file;
  // the registry's placement spreads them over disks. `policy` overrides
  // the configured default quorums for this group.
  Result<GroupId> CreateReplicated(file::ServiceType type,
                                   std::uint32_t replica_count,
                                   std::uint64_t size_hint = 0,
                                   GroupPolicy policy = {});

  Status DeleteReplicated(GroupId group);

  // Quorum write: fans out to every current reachable replica and commits
  // once W acknowledge. Fails fast with kUnavailable when fewer than W
  // replicas are eligible (degraded mode). Replicas that missed the write
  // get hints. `token` (nonzero) makes the write idempotent: retrying a
  // timed-out-but-delivered exchange replays the recorded ack instead of
  // applying the bytes twice.
  Result<WriteAck> Write(GroupId group, std::uint64_t offset,
                         std::span<const std::uint8_t> in,
                         std::uint64_t token = 0);

  // Quorum read: observes up to R live replicas, serves the current
  // version, and inline-repairs observed laggards. With no live current
  // replica it serves the freshest reachable copy with `stale` set, or
  // fails with kUnavailable when no replica is readable at all.
  Result<ReadAck> Read(GroupId group, std::uint64_t offset,
                       std::span<std::uint8_t> out);

  // Brings every stale/suspected replica back in sync: hint replay when the
  // queued hints cover the gap, full copy from the freshest replica
  // otherwise.
  Status Repair(GroupId group);

  // --- Failure-detector hooks -------------------------------------------------
  // The recovery orchestrator watches disks and steers the read path by
  // flipping suspicion; reads then route around dead replicas without
  // having to fail against them first. Suspicion changes bump the group
  // epoch, fencing the suspect out of current-version serving.

  // Marks every replica living on `disk` suspected (disk reported down).
  // Returns the number of replicas newly marked.
  std::size_t MarkDiskDown(DiskId disk);

  // Clears suspicion for CURRENT-version replicas on `disk` (disk back in
  // service; stale replicas stay suspect until repair catches them up).
  std::size_t MarkDiskUp(DiskId disk);

  // Anti-entropy hook: brings every lagging replica of `group` whose disk
  // is reachable back to current. With `full_copies` false only hint replay
  // (and plain readmission) is attempted — the cheap every-tick pass; the
  // periodic full scan passes true. Returns replicas caught up.
  std::size_t SyncGroup(GroupId group, bool full_copies);

  // All replica groups, creation-ordered (audits and chaos sweeps).
  std::vector<GroupId> GroupIds() const;

  // True when every replica acknowledges the group's current version at the
  // current epoch, none is suspected, and no hints are pending.
  Result<bool> AllCurrent(GroupId group) const;

  // Pending hinted-handoff entries across all groups (queue-depth gauge).
  std::uint64_t TotalPendingHints() const;

  // Introspection.
  Result<std::vector<ReplicaInfo>> Replicas(GroupId group) const;
  Result<std::uint64_t> CurrentVersion(GroupId group) const;
  Result<std::uint64_t> CurrentEpoch(GroupId group) const;
  const ReplicationStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ReplicationStats{}; }

  // Installed by the facility; null means no tracing/metrics.
  void SetObservability(obs::Observability* o) { obs_ = o; }

  // Test hook: called before every chunk of a full-copy repair with
  // (group, replica index, chunk ordinal) — chaos scenarios crash the
  // target disk from here to model a failure mid-Repair.
  using RepairProbe = std::function<void(GroupId, std::size_t, std::uint64_t)>;
  void SetRepairProbe(RepairProbe probe) { repair_probe_ = std::move(probe); }

 private:
  // One write a lagging replica missed, replayable in version order.
  struct Hint {
    std::uint64_t version = 0;
    std::uint64_t offset = 0;
    std::vector<std::uint8_t> data;
    SimTime queued_at = 0;
  };

  struct Replica {
    ReplicaInfo info;
    SimTime ack_time = 0;  // sim time of the last acknowledged version
    std::deque<Hint> hints;
    bool hint_overflow = false;  // queue overflowed: full copy required
    // A direct write to this replica failed mid-flight: its bytes may be
    // torn, so hint replay is not enough — only a full copy readmits it.
    bool dirty = false;
  };

  struct Group {
    std::vector<Replica> replicas;
    GroupPolicy policy;
    std::uint64_t version = 0;  // version of the latest committed write
    std::uint64_t epoch = 1;    // bumped on suspicion/membership change
    std::uint64_t size = 0;
    SimTime version_time = 0;  // commit time of the current version
    // Idempotency: recently committed write tokens -> their acks.
    std::unordered_map<std::uint64_t, WriteAck> token_acks;
    std::deque<std::uint64_t> token_order;
  };

  Result<Group*> Find(GroupId group);
  Result<const Group*> Find(GroupId group) const;

  std::uint32_t WriteQuorum(const Group& g) const;
  std::uint32_t ReadQuorum(const Group& g) const;

  bool DiskReachable(DiskId disk) const;
  // Not yet converged: behind the group's version or epoch, suspected,
  // dirty, or holding hints still to replay.
  static bool Behind(const Group& g, const Replica& r);
  // Eligible to serve/accept the current version: current epoch+version,
  // not suspected, not dirty, disk reachable.
  bool IsCurrent(const Group& g, const Replica& r) const;

  // Bumps the group epoch and re-joins every clean current replica to it.
  void BumpEpoch(Group& g);
  // Marks `r` suspected (idempotent); returns true on a new suspicion.
  bool Suspect(Replica& r);

  void QueueHint(GroupId id, Group& g, Replica& r, std::uint64_t version,
                 std::uint64_t offset, std::span<const std::uint8_t> in);
  void RememberToken(Group& g, std::uint64_t token, const WriteAck& ack);

  // Brings one replica to the current version: hint replay when the queue
  // covers the gap, full copy otherwise. Clears suspicion and re-joins the
  // epoch on success.
  Status CatchUp(GroupId id, Group& g, Replica& r);
  Status FullCopy(GroupId id, Group& g, Replica& r);

  disk::DiskRegistry* disks_;
  SimClock* clock_;
  file::FileResolver files_;
  ReplicationConfig config_;
  std::unordered_map<GroupId, Group> groups_;
  std::uint64_t next_group_{1};
  ReplicationStats stats_;
  obs::Observability* obs_ = nullptr;
  RepairProbe repair_probe_;
};

}  // namespace rhodos::replication
