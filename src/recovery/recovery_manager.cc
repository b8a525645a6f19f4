#include "recovery/recovery_manager.h"

namespace rhodos::recovery {

void RecoveryManager::Tick() {
  ++stats_.ticks;
  const auto& disks = disks_->disks();
  // Disks added since the last tick start out believed-up, so a disk that
  // crashed before the manager's first look still produces a failure edge.
  if (disk_up_.size() < disks.size()) disk_up_.resize(disks.size(), true);

  for (std::size_t i = 0; i < disks.size(); ++i) {
    // One observation through the three-state machine: anything short of
    // a clean kHealthy verdict (suspected or down) routes reads away.
    const DiskId disk = disks[i]->id();
    const bool up =
        detector_->Observe(sim::DiskFaultTarget(disk.value),
                           disks[i]->Reachable()) == ServiceState::kHealthy;
    const bool was_up = disk_up_[i];
    disk_up_[i] = up;
    if (was_up && !up) {
      ++stats_.disk_failures_detected;
      stats_.replicas_marked_down += replication_->MarkDiskDown(disk);
    } else if (!was_up && up) {
      ++stats_.disk_recoveries_detected;
      // Readmit replicas that are still current; stale ones stay suspected
      // and the anti-entropy round below converges them.
      (void)replication_->MarkDiskUp(disk);
    }
  }

  for (std::uint32_t s = 0; s < router_->ShardCount(); ++s) {
    const bool healthy =
        detector_->Probe(router_->AddressOf(s)) == ServiceState::kHealthy;
    if (!healthy && !router_->Suspected(s)) {
      router_->SuspectShard(s);
      ++stats_.shard_failovers;
    } else if (healthy && router_->Suspected(s)) {
      router_->ReadmitShard(s);
      ++stats_.shard_readmissions;
    }
  }

  const bool full_scan_due = stats_.ticks % kFullScanEveryTicks == 0;
  std::size_t caught_up = 0;
  for (replication::GroupId g : replication_->GroupIds()) {
    // Hint drain first: it is cheap and may make the full scan a no-op.
    caught_up += replication_->SyncGroup(g, /*full_copies=*/false);
    if (full_scan_due) {
      caught_up += replication_->SyncGroup(g, /*full_copies=*/true);
    }
  }
  if (full_scan_due) ++stats_.anti_entropy_scans;
  stats_.anti_entropy_repairs += caught_up;
  stats_.auto_repairs += caught_up;
}

std::size_t RecoveryManager::RepairAllStale() {
  std::size_t repaired = 0;
  for (replication::GroupId g : replication_->GroupIds()) {
    auto current = replication_->AllCurrent(g);
    if (current.ok() && *current) continue;
    if (replication_->Repair(g).ok()) {
      ++repaired;
      ++stats_.auto_repairs;
    } else {
      ++stats_.repair_failures;
    }
  }
  return repaired;
}

bool RecoveryManager::DiskBelievedUp(DiskId disk) const {
  return disk.value >= disk_up_.size() || disk_up_[disk.value];
}

}  // namespace rhodos::recovery
