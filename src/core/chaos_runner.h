// Chaos harness: a seeded mixed workload driven against the assembled
// facility while a FaultPlan crashes disks, downs services and partitions
// callers — then an invariant sweep over the wreckage.
//
// The paper argues its reliability mechanisms (idempotent at-least-once
// messages §3, intentions-list transactions §6, replication §2.1) each in
// isolation; the ChaosRunner composes them: a disk dies mid-transaction
// while the network is dropping replies, and the volume must still audit
// clean. Everything is deterministic given (workload seed, fault plan):
// the same run always produces the same report.
//
// Workload oracle: the runner keeps, per object (replica group / agent
// file / transaction file), the byte image that a *successful* operation
// last established. A failed write leaves the object "unknown" until the
// next successful write — a failed write-all may legitimately have torn
// one replica, and a client cannot know which bytes landed. Invariants:
//
//  I1  no corrupt success: a read that RETURNED OK matches the oracle;
//  I2  committed durability: every transaction whose commit point was
//      reached (even if applying failed and recovery had to redo it) shows
//      its data after final recovery;
//  I3  convergence: after the final repair pass every replica of every
//      group acknowledges the group version;
//  I4  fsck: the structural audit of every file involved reports clean;
//  I5  snapshot immutability: a snapshot read that returned OK (including
//      after the final recovery) is byte-identical to its capture image,
//      no matter how much the origin or any clone was overwritten.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/facility.h"
#include "recovery/recovery_manager.h"
#include "sim/message_bus.h"

namespace rhodos::core {

struct ChaosWorkloadConfig {
  std::uint64_t seed = 1;
  int operations = 400;
  std::uint32_t replica_groups = 2;
  std::uint32_t replicas_per_group = 3;  // clamped to the disk count
  std::uint32_t txn_files = 2;
  std::uint32_t agent_files = 2;
  std::uint32_t region_bytes = 4096;  // oracle-tracked bytes per object
  SimTime time_per_op = 2 * kSimMillisecond;  // clock advance between ops
  // Snapshot/clone storm (E23). 0 keeps the workload byte-identical to the
  // pre-snapshot runner (the rng stream is untouched); >0 adds capture /
  // clone-write / image-read steps up to this many live images.
  std::uint32_t max_images = 0;
  // When >= 0, every service and every disk crashes at this op ordinal and
  // recovery (snapshot journal first, then the intention log) runs mid-storm.
  int service_crash_at_op = -1;
};

struct ChaosReport {
  // Workload counters.
  std::uint64_t operations = 0;
  std::uint64_t op_failures = 0;  // ops the faults made fail (legal)
  std::uint64_t replicated_writes = 0;
  std::uint64_t replicated_reads = 0;
  std::uint64_t txn_commits = 0;
  std::uint64_t txn_aborts = 0;
  std::uint64_t agent_writes = 0;
  std::uint64_t agent_reads = 0;
  std::uint64_t stale_reads = 0;  // reads served best-effort, flagged stale
  // Snapshot/clone storm counters (zero when max_images == 0).
  std::uint64_t snapshots_taken = 0;
  std::uint64_t clones_taken = 0;
  std::uint64_t clone_writes = 0;
  std::uint64_t image_reads = 0;
  // What the recovery machinery did while the faults ran.
  std::uint64_t failovers = 0;
  std::uint64_t auto_repairs = 0;
  std::uint64_t read_repairs = 0;
  std::uint64_t token_replays = 0;  // duplicate writes absorbed by token
  std::uint64_t disk_failures_seen = 0;
  std::uint64_t disk_recoveries_seen = 0;
  // Invariant verdicts (all zero / clean on a surviving run).
  std::uint64_t corrupt_reads = 0;        // I1 violations during the run
  std::uint64_t committed_data_lost = 0;  // I2 violations at the end
  std::uint64_t replica_mismatches = 0;   // I1 re-checked at the end
  std::uint64_t unconverged_groups = 0;   // I3 violations
  std::uint64_t fsck_issues = 0;          // I4 violations
  std::uint64_t snapshot_mismatches = 0;  // I5 violations
  bool fsck_clean = false;
  // What the audit actually verified (forensics for the refcount sweep).
  std::uint64_t fsck_refcounts_checked = 0;
  std::uint64_t fsck_shared_blocks = 0;
  bool completed = false;  // workload + verification ran to the end
  // Full facility metrics at the end of the run (Facility::DumpStats JSON):
  // the operator's forensic record of what the faults cost each layer.
  std::string metrics_json;

  bool ok() const {
    return completed && corrupt_reads == 0 && committed_data_lost == 0 &&
           replica_mismatches == 0 && unconverged_groups == 0 &&
           snapshot_mismatches == 0 && fsck_clean;
  }
  std::string Summary() const;
};

class ChaosRunner {
 public:
  explicit ChaosRunner(DistributedFileFacility* facility,
                       ChaosWorkloadConfig config = {});

  // Installs `plan`, drives the workload, heals the world, runs recovery
  // and the invariant suite. An error return means SETUP failed; faults
  // encountered mid-workload are reported, not returned.
  Result<ChaosReport> Run(sim::FaultPlan plan);

  // The workload's transaction files (valid once Run() has set them up).
  const std::vector<FileId>& txn_files() const { return txn_files_; }

 private:
  struct Oracle {
    std::vector<std::uint8_t> data;
    bool known = false;  // false until a write confirmedly succeeds
  };

  std::vector<std::uint8_t> OpPattern(std::uint64_t op) const;
  void StepReplicatedWrite(std::size_t target, std::uint64_t op,
                           ChaosReport& report);
  void StepReplicatedRead(std::size_t target, ChaosReport& report);
  void StepTxnCommit(std::size_t target, std::uint64_t op,
                     ChaosReport& report);
  void StepAgentWrite(std::size_t target, std::uint64_t op,
                      ChaosReport& report);
  void StepAgentRead(std::size_t target, ChaosReport& report);
  void StepCapture(std::size_t source, std::uint64_t op, ChaosReport& report);
  void StepImageOp(std::uint64_t op, ChaosReport& report);
  void HealAndRecover(ChaosReport& report);
  void Verify(ChaosReport& report);

  DistributedFileFacility* f_;
  ChaosWorkloadConfig config_;
  Rng rng_;

  Machine* machine_ = nullptr;
  std::vector<replication::GroupId> groups_;
  std::vector<Oracle> group_oracle_;
  std::vector<FileId> txn_files_;
  std::vector<Oracle> txn_oracle_;
  std::vector<ObjectDescriptor> agent_files_;
  std::vector<FileId> agent_file_ids_;
  std::vector<Oracle> agent_oracle_;
  // Live snapshot/clone images. A snapshot's oracle is frozen at capture;
  // a clone's oracle moves with its own confirmed writes.
  struct ImageState {
    ObjectDescriptor od{};
    FileId id{};
    bool writable = false;  // clone
    Oracle oracle;
  };
  std::vector<ImageState> images_;
};

}  // namespace rhodos::core
