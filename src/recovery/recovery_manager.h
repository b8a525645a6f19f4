// Recovery orchestrator: turns failure-detector verdicts into routing and
// repair actions.
//
// The paper requires "the provision to support the concept of file
// replication" for availability (§2.1); availability in practice is a
// control loop, not a data structure. Each Tick() the manager:
//
//  * reports every disk server's reachability to the FailureDetector, so
//    disk suspicion runs the same three-state machine as the bus services;
//  * on a failure edge (crash or partition), marks all replicas on that
//    disk suspected, so the replication service's read path fails over
//    immediately instead of discovering the corpse one failed read at a
//    time — and the suspicion bumps the group epoch, fencing the replica;
//  * on a recovery edge, readmits the disk's still-current replicas;
//  * probes every file-service shard over the bus: a shard that is not
//    healthy is suspected on the ShardRouter (agents route around it from
//    their next request), a healthy-again shard is readmitted, and both
//    edges fence through the router's epoch machinery;
//  * runs anti-entropy: every tick it drains complete hint chains in every
//    group, and every 4th tick it also runs the full scan, which rebuilds
//    by full copy what hints cannot cover (torn replicas, overflowed hint
//    queues, replicas readmitted after long partitions). This converges
//    replicas that diverged without a clean failure/recovery edge.
//
// Reading disks directly (rather than through the bus) is deliberate: disk
// servers are local to the file service machine in the paper's
// architecture, so their liveness is observable without network ambiguity.
#pragma once

#include <cstdint>
#include <vector>

#include "disk/disk_registry.h"
#include "obs/metrics.h"
#include "placement/shard_router.h"
#include "recovery/failure_detector.h"
#include "replication/replication_service.h"

namespace rhodos::recovery {

// Ticks between full anti-entropy scans (hint drains run every tick),
// counted from construction or the last ResetStats.
inline constexpr std::uint64_t kFullScanEveryTicks = 4;

struct RecoveryStats {
  std::uint64_t ticks = 0;
  std::uint64_t disk_failures_detected = 0;
  std::uint64_t disk_recoveries_detected = 0;
  std::uint64_t replicas_marked_down = 0;
  std::uint64_t auto_repairs = 0;     // replicas the loop brought current
  std::uint64_t repair_failures = 0;  // RepairAllStale() groups that errored
  std::uint64_t shard_failovers = 0;    // metadata shards routed around
  std::uint64_t shard_readmissions = 0;  // metadata shards readmitted
  std::uint64_t anti_entropy_scans = 0;    // full scans run
  std::uint64_t anti_entropy_repairs = 0;  // replicas anti-entropy caught up
};

inline constexpr obs::CounterField<RecoveryStats> kRecoveryCounters[] = {
    {"recovery.ticks", &RecoveryStats::ticks},
    {"recovery.disk_failures_detected", &RecoveryStats::disk_failures_detected},
    {"recovery.disk_recoveries_detected",
     &RecoveryStats::disk_recoveries_detected},
    {"recovery.replicas_marked_down", &RecoveryStats::replicas_marked_down},
    {"recovery.auto_repairs", &RecoveryStats::auto_repairs},
    {"recovery.repair_failures", &RecoveryStats::repair_failures},
    {"file.shard_failovers", &RecoveryStats::shard_failovers},
    {"file.shard_readmissions", &RecoveryStats::shard_readmissions},
    {"replication.anti_entropy_scans", &RecoveryStats::anti_entropy_scans},
    {"replication.anti_entropy_repairs",
     &RecoveryStats::anti_entropy_repairs},
};

class RecoveryManager {
 public:
  RecoveryManager(disk::DiskRegistry* disks,
                  replication::ReplicationService* replication,
                  FailureDetector* detector, placement::ShardRouter* router)
      : disks_(disks),
        replication_(replication),
        detector_(detector),
        router_(router) {}

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  // One control-loop round: observe disks, probe shards, mark and repair
  // as edges dictate, then one anti-entropy round. Deterministic: state
  // depends only on the disks' and services' fault flags.
  void Tick();

  // Forces a repair sweep over every group that has not converged (the
  // end-of-chaos "make the volume whole" pass). Returns groups repaired.
  std::size_t RepairAllStale();

  bool DiskBelievedUp(DiskId disk) const;
  const RecoveryStats& stats() const { return stats_; }
  void ResetStats() { stats_ = RecoveryStats{}; }

 private:
  disk::DiskRegistry* disks_;
  replication::ReplicationService* replication_;
  FailureDetector* detector_;
  placement::ShardRouter* router_;
  std::vector<bool> disk_up_;  // last observed liveness, per disk index
  RecoveryStats stats_;
};

}  // namespace rhodos::recovery
