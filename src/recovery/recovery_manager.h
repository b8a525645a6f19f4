// Recovery orchestrator: turns failure-detector verdicts into routing and
// repair actions.
//
// The paper requires "the provision to support the concept of file
// replication" for availability (§2.1); availability in practice is a
// control loop, not a data structure. Each Tick() the manager:
//
//  * polls every disk server for liveness — directly via Reachable(), or
//    through a disk-targeted FailureDetector when one is installed, so
//    suspicion feeds the same three-state machine the bus services use;
//  * on a failure edge (crash or partition), marks all replicas on that
//    disk suspected, so the replication service's read path fails over
//    immediately instead of discovering the corpse one failed read at a
//    time — and the suspicion bumps the group epoch, fencing the replica;
//  * on a recovery edge, readmits still-current replicas and lets the
//    AntiEntropyScanner converge the rest — hint replay first, full copy
//    when hints cannot cover the gap. Without a scanner the manager falls
//    back to eager per-disk Repair() (the legacy path).
//
// Polling disks directly (rather than through the bus) is deliberate: disk
// servers are local to the file service machine in the paper's
// architecture, so their liveness is observable without network ambiguity.
#pragma once

#include <cstdint>
#include <vector>

#include "disk/disk_registry.h"
#include "obs/metrics.h"
#include "placement/shard_router.h"
#include "recovery/failure_detector.h"
#include "replication/anti_entropy.h"
#include "replication/replication_service.h"
#include "txn/txn_log.h"

namespace rhodos::recovery {

struct RecoveryConfig {
  bool auto_repair = true;  // repair groups when their disk comes back
};

struct RecoveryStats {
  std::uint64_t ticks = 0;
  std::uint64_t disk_failures_detected = 0;
  std::uint64_t disk_recoveries_detected = 0;
  std::uint64_t replicas_marked_down = 0;
  std::uint64_t auto_repairs = 0;     // successful Repair() invocations
  std::uint64_t repair_failures = 0;  // Repair() attempts that errored
  std::uint64_t log_audits = 0;       // AuditIntentionLog() calls
  std::uint64_t log_torn_batches = 0;      // torn group-commit frames seen
  std::uint64_t log_salvaged_records = 0;  // records salvaged from tears
  std::uint64_t shard_failovers = 0;    // metadata shards routed around
  std::uint64_t shard_readmissions = 0;  // metadata shards readmitted
};

// The log-audit fields are not exported.
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
};

class RecoveryManager {
 public:
  RecoveryManager(disk::DiskRegistry* disks,
                  replication::ReplicationService* replication,
                  RecoveryConfig config = {})
      : disks_(disks), replication_(replication), config_(config) {}

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  // Installs the background anti-entropy scanner. With it set, Tick() stops
  // eagerly repairing on recovery edges and instead readmits current
  // replicas (MarkDiskUp) and runs one scanner round, which drains hints
  // and schedules full copies; caught-up replicas count as auto_repairs.
  void SetAntiEntropy(replication::AntiEntropyScanner* scanner) {
    scanner_ = scanner;
  }

  // Installs a disk-targeted failure detector (probing "disk-<id>"). With
  // it set, liveness verdicts come from the detector's three-state machine
  // instead of raw Reachable() polling: a disk counts as up only while the
  // detector says kHealthy.
  void SetDiskDetector(FailureDetector* detector) { detector_ = detector; }

  // Installs the metadata shard router. With it (and a detector) set, every
  // Tick() also probes each file-service shard's bus address: a shard that
  // is not kHealthy is suspected on the router (agents route around it from
  // the next request on), and a healthy-again shard is readmitted. Both
  // edges fence via the router's epoch machinery. The facility installs
  // this only when it actually runs more than one shard.
  void SetShardRouter(placement::ShardRouter* router) { router_ = router; }

  // One control-loop round: poll disks, mark/repair as edges dictate.
  // Deterministic: state depends only on the disks' crash flags.
  void Tick();

  // Forces a repair sweep over every group that has not converged (the
  // end-of-chaos "make the volume whole" pass). Returns groups repaired.
  std::size_t RepairAllStale();

  // Structural scan of an intention log's batch frames on stable storage
  // (the group-commit pipeline's on-disk format). Run after a crash,
  // before trusting TransactionService::Recover(): a torn tail batch is
  // the expected signature of a crash mid-force; the audit reports how
  // many records the tear's salvageable prefix still yields.
  Result<txn::TxnLogAudit> AuditIntentionLog(txn::TxnLog& log);

  bool DiskBelievedUp(DiskId disk) const;
  const RecoveryStats& stats() const { return stats_; }
  void ResetStats() { stats_ = RecoveryStats{}; }

 private:
  void RepairGroupsOnDisk(DiskId disk);

  disk::DiskRegistry* disks_;
  replication::ReplicationService* replication_;
  replication::AntiEntropyScanner* scanner_ = nullptr;
  FailureDetector* detector_ = nullptr;
  placement::ShardRouter* router_ = nullptr;
  RecoveryConfig config_;
  std::vector<bool> disk_up_;  // last observed liveness, per disk index
  RecoveryStats stats_;
};

}  // namespace rhodos::recovery
