#include "core/chaos_runner.h"

#include <algorithm>

#include "file/fsck.h"

namespace rhodos::core {

using replication::GroupId;

ChaosRunner::ChaosRunner(DistributedFileFacility* facility,
                         ChaosWorkloadConfig config)
    : f_(facility), config_(config), rng_(config.seed) {}

std::vector<std::uint8_t> ChaosRunner::OpPattern(std::uint64_t op) const {
  std::vector<std::uint8_t> v(config_.region_bytes);
  // Cheap per-op pattern: mixes the workload seed and the op ordinal so two
  // runs with the same seed write byte-identical data.
  const std::uint64_t base = config_.seed * 1000003ULL + op * 2654435761ULL;
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::uint8_t>(base + i * 131ULL);
  }
  return v;
}

Result<ChaosReport> ChaosRunner::Run(sim::FaultPlan plan) {
  auto& repl = f_->replication();

  // --- Setup (before any fault fires) -------------------------------------
  machine_ = f_->MachineCount() > 0 ? &f_->machine(0) : &f_->AddMachine();

  const std::uint32_t replicas = std::min<std::uint32_t>(
      std::max<std::uint32_t>(1, config_.replicas_per_group),
      static_cast<std::uint32_t>(f_->disks().DiskCount()));
  groups_.clear();
  for (std::uint32_t i = 0; i < config_.replica_groups; ++i) {
    // Transaction-typed replicas write through, so a replica ack means the
    // bytes are on the platter — the durability the invariants check.
    RHODOS_ASSIGN_OR_RETURN(
        GroupId g, repl.CreateReplicated(file::ServiceType::kTransaction,
                                         replicas, config_.region_bytes));
    groups_.push_back(g);
  }
  group_oracle_.assign(groups_.size(), {});

  txn_files_.clear();
  for (std::uint32_t i = 0; i < config_.txn_files; ++i) {
    // Created where the services create (the null id's shard), then
    // reached through the file's owner like every later access.
    RHODOS_ASSIGN_OR_RETURN(
        FileId id, f_->OwnerOf(FileId{}).Create(file::ServiceType::kTransaction,
                                                config_.region_bytes));
    RHODOS_RETURN_IF_ERROR(
        f_->OwnerOf(id).SetLockLevel(id, file::LockLevel::kPage));
    txn_files_.push_back(id);
  }
  txn_oracle_.assign(txn_files_.size(), {});

  agent_files_.clear();
  agent_file_ids_.clear();
  for (std::uint32_t i = 0; i < config_.agent_files; ++i) {
    RHODOS_ASSIGN_OR_RETURN(
        ObjectDescriptor od,
        machine_->file_agent->Create(
            naming::ByName("chaos-" + std::to_string(config_.seed) + "-" +
                           std::to_string(i)),
            file::ServiceType::kBasic, config_.region_bytes));
    RHODOS_ASSIGN_OR_RETURN(FileId id, machine_->file_agent->FileOf(od));
    agent_files_.push_back(od);
    agent_file_ids_.push_back(id);
  }
  agent_oracle_.assign(agent_files_.size(), {});

  // --- The storm -----------------------------------------------------------
  f_->bus().SetFaultPlan(std::move(plan));

  ChaosReport report;
  for (int op = 0; op < config_.operations; ++op) {
    f_->clock().Advance(config_.time_per_op);
    f_->bus().PumpFaults();   // scheduled faults fire as time passes
    f_->recovery().Tick();    // ...and the control loop reacts
    ++report.operations;

    if (config_.service_crash_at_op >= 0 &&
        op == config_.service_crash_at_op) {
      // Mid-storm total server loss: every file service and every disk
      // crashes together, then recovery replays the snapshot journal and
      // the intention log before the workload resumes.
      f_->CrashServers();
      (void)f_->RecoverServers();
    }

    // With max_images == 0 the extra step kinds never roll and the rng
    // stream is byte-identical to the pre-snapshot runner.
    const std::uint64_t kind =
        config_.max_images > 0 ? rng_.Below(12) : rng_.Below(10);
    if (kind < 3 && !groups_.empty()) {
      StepReplicatedWrite(rng_.Below(groups_.size()), op, report);
    } else if (kind < 5 && !groups_.empty()) {
      StepReplicatedRead(rng_.Below(groups_.size()), report);
    } else if (kind < 7 && !txn_files_.empty()) {
      StepTxnCommit(rng_.Below(txn_files_.size()), op, report);
    } else if (kind < 9 && !agent_files_.empty()) {
      StepAgentWrite(rng_.Below(agent_files_.size()), op, report);
    } else if (kind < 10 && !agent_files_.empty()) {
      StepAgentRead(rng_.Below(agent_files_.size()), report);
    } else if (kind < 11 && !agent_files_.empty()) {
      StepCapture(rng_.Below(agent_files_.size()), op, report);
    } else if (kind < 12) {
      StepImageOp(op, report);
    }
  }

  report.failovers = repl.stats().failovers;
  report.read_repairs = repl.stats().read_repairs;
  report.token_replays = repl.stats().token_replays;
  report.auto_repairs = f_->recovery().stats().auto_repairs;
  report.disk_failures_seen = f_->recovery().stats().disk_failures_detected;
  report.disk_recoveries_seen =
      f_->recovery().stats().disk_recoveries_detected;

  HealAndRecover(report);
  Verify(report);
  report.completed = true;
  report.metrics_json = f_->DumpStats(/*json=*/true);
  return report;
}

void ChaosRunner::StepReplicatedWrite(std::size_t target, std::uint64_t op,
                                      ChaosReport& report) {
  ++report.replicated_writes;
  auto data = OpPattern(op);
  // Each op carries a unique deterministic idempotency token, and a failed
  // attempt gets one client-style retry with the SAME token — the retried
  // exchange whose first delivery committed must replay the recorded ack,
  // not apply the bytes as a second version (the double-apply regression).
  const std::uint64_t token = op + 1;
  auto n = f_->replication().Write(groups_[target], 0, data, token);
  if (!n.ok() && n.error().code == ErrorCode::kUnavailable) {
    n = f_->replication().Write(groups_[target], 0, data, token);
  }
  Oracle& o = group_oracle_[target];
  if (n.ok()) {
    o.data = std::move(data);
    o.known = true;
  } else {
    // A failed quorum write may still have landed on some replicas (the
    // roll-forward); nobody can say which bytes are current until the next
    // successful write re-establishes truth.
    o.known = false;
    ++report.op_failures;
  }
}

void ChaosRunner::StepReplicatedRead(std::size_t target,
                                     ChaosReport& report) {
  ++report.replicated_reads;
  const Oracle& o = group_oracle_[target];
  std::vector<std::uint8_t> out(config_.region_bytes);
  auto n = f_->replication().Read(groups_[target], 0, out);
  if (!n.ok()) {
    ++report.op_failures;
    return;
  }
  if (n->stale) {
    // Explicitly-flagged degraded serve: old bytes are legal here, and the
    // flag is exactly what keeps them from masquerading as current.
    ++report.stale_reads;
    return;
  }
  if (o.known && (n->bytes != o.data.size() ||
                  !std::equal(o.data.begin(), o.data.end(), out.begin()))) {
    ++report.corrupt_reads;  // I1: success with wrong bytes
  }
}

void ChaosRunner::StepTxnCommit(std::size_t target, std::uint64_t op,
                                ChaosReport& report) {
  auto& txns = f_->transactions();
  auto t = txns.Begin(ProcessId{1000 + target});
  if (!t.ok()) {
    ++report.op_failures;
    return;
  }
  auto data = OpPattern(op);
  auto w = txns.TWrite(*t, txn_files_[target], 0, data);
  if (!w.ok()) {
    (void)txns.Abort(*t);
    ++report.txn_aborts;
    ++report.op_failures;
    return;
  }
  const std::uint64_t commits_before = txns.stats().commits;
  Status end = txns.End(*t);
  // End() may fail AFTER the commit point (a disk died mid-apply); the
  // stats tell the truth: if the commit counted, recovery must redo it and
  // the oracle expects the new bytes (I2).
  if (txns.stats().commits > commits_before) {
    ++report.txn_commits;
    txn_oracle_[target].data = std::move(data);
    txn_oracle_[target].known = true;
    if (!end.ok()) ++report.op_failures;
  } else {
    ++report.txn_aborts;
    ++report.op_failures;
  }
}

void ChaosRunner::StepAgentWrite(std::size_t target, std::uint64_t op,
                                 ChaosReport& report) {
  ++report.agent_writes;
  auto data = OpPattern(op);
  auto n = machine_->file_agent->Pwrite(agent_files_[target], 0, data);
  Oracle& o = agent_oracle_[target];
  if (n.ok() && *n == data.size()) {
    o.data = std::move(data);
    o.known = true;
  } else {
    o.known = false;
    ++report.op_failures;
  }
}

void ChaosRunner::StepAgentRead(std::size_t target, ChaosReport& report) {
  ++report.agent_reads;
  const Oracle& o = agent_oracle_[target];
  std::vector<std::uint8_t> out(config_.region_bytes);
  auto n = machine_->file_agent->Pread(agent_files_[target], 0, out);
  if (!n.ok()) {
    ++report.op_failures;
    return;
  }
  if (o.known && (*n != o.data.size() ||
                  !std::equal(o.data.begin(), o.data.end(), out.begin()))) {
    ++report.corrupt_reads;
  }
}

void ChaosRunner::StepCapture(std::size_t source, std::uint64_t op,
                              ChaosReport& report) {
  if (images_.size() >= config_.max_images) {
    StepImageOp(op, report);
    return;
  }
  const bool clone = rng_.Below(2) == 1;
  auto id = clone ? machine_->file_agent->Clone(agent_files_[source])
                  : machine_->file_agent->Snapshot(agent_files_[source]);
  if (!id.ok()) {
    ++report.op_failures;
    return;
  }
  auto od = machine_->file_agent->OpenById(*id);
  if (!od.ok()) {
    ++report.op_failures;
    return;
  }
  ImageState img;
  img.od = *od;
  img.id = *id;
  img.writable = clone;
  // The capture flushed the agent's dirty blocks first, so the image holds
  // exactly the source's last confirmed bytes (unknown stays unknown).
  img.oracle = agent_oracle_[source];
  images_.push_back(std::move(img));
  if (clone) {
    ++report.clones_taken;
  } else {
    ++report.snapshots_taken;
  }
}

void ChaosRunner::StepImageOp(std::uint64_t op, ChaosReport& report) {
  if (images_.empty()) return;
  ImageState& img = images_[rng_.Below(images_.size())];
  if (img.writable && rng_.Below(2) == 1) {
    ++report.clone_writes;
    auto data = OpPattern(op);
    auto n = machine_->file_agent->Pwrite(img.od, 0, data);
    if (n.ok() && *n == data.size()) {
      img.oracle.data = std::move(data);
      img.oracle.known = true;
    } else {
      img.oracle.known = false;
      ++report.op_failures;
    }
    return;
  }
  ++report.image_reads;
  std::vector<std::uint8_t> out(config_.region_bytes);
  auto n = machine_->file_agent->Pread(img.od, 0, out);
  if (!n.ok()) {
    ++report.op_failures;
    return;
  }
  if (img.oracle.known &&
      (*n != img.oracle.data.size() ||
       !std::equal(img.oracle.data.begin(), img.oracle.data.end(),
                   out.begin()))) {
    // A clone is an ordinary mutable file (I1); a snapshot that drifted
    // from its capture image is the dedicated I5 violation.
    if (img.writable) {
      ++report.corrupt_reads;
    } else {
      ++report.snapshot_mismatches;
    }
  }
}

void ChaosRunner::HealAndRecover(ChaosReport& report) {
  // End of the storm: cancel pending faults, lift partitions, restart every
  // dead disk, replay the intention log, repair every stale replica.
  f_->bus().ClearFaults();
  for (const auto& disk : f_->disks().disks()) {
    if (disk->partitioned()) (void)f_->HealDisk(disk->id());
    if (disk->crashed()) (void)f_->RecoverDisk(disk->id());
  }
  (void)f_->transactions().Recover();
  f_->recovery().Tick();  // observe the recoveries (auto-repairs fire here)
  (void)f_->recovery().RepairAllStale();
  (void)machine_->file_agent->FlushAll();
  for (std::uint32_t s = 0; s < f_->file_shard_count(); ++s) {
    (void)f_->files(s).FlushAll();
  }
  report.auto_repairs = f_->recovery().stats().auto_repairs;
}

void ChaosRunner::Verify(ChaosReport& report) {
  auto& repl = f_->replication();

  // I3: convergence, and I1 re-checked against the post-recovery volume.
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    auto converged = repl.AllCurrent(groups_[i]);
    if (!converged.ok() || !*converged) {
      ++report.unconverged_groups;
      continue;
    }
    const Oracle& o = group_oracle_[i];
    if (!o.known) continue;
    // Every single replica must hold the oracle bytes, not just read-one.
    auto replicas = repl.Replicas(groups_[i]);
    if (!replicas.ok()) {
      ++report.replica_mismatches;
      continue;
    }
    for (const auto& r : *replicas) {
      std::vector<std::uint8_t> out(o.data.size());
      auto n = f_->OwnerOf(r.file).Read(r.file, 0, out);
      if (!n.ok() || *n != o.data.size() || out != o.data) {
        ++report.replica_mismatches;
      }
    }
  }

  // I2: committed transaction data is durable.
  for (std::size_t i = 0; i < txn_files_.size(); ++i) {
    const Oracle& o = txn_oracle_[i];
    if (!o.known) continue;
    std::vector<std::uint8_t> out(o.data.size());
    auto n = f_->OwnerOf(txn_files_[i]).Read(txn_files_[i], 0, out);
    if (!n.ok() || *n != o.data.size() || out != o.data) {
      ++report.committed_data_lost;
    }
  }

  // Agent files: last confirmed write must be readable through the agent.
  for (std::size_t i = 0; i < agent_files_.size(); ++i) {
    const Oracle& o = agent_oracle_[i];
    if (!o.known) continue;
    std::vector<std::uint8_t> out(o.data.size());
    auto n = machine_->file_agent->Pread(agent_files_[i], 0, out);
    if (!n.ok() || *n != o.data.size() || out != o.data) {
      ++report.committed_data_lost;
    }
  }

  // I5: snapshot immutability survives the final recovery; a clone's last
  // confirmed bytes are ordinary committed data (I2).
  for (const ImageState& img : images_) {
    if (!img.oracle.known) continue;
    std::vector<std::uint8_t> out(img.oracle.data.size());
    auto n = machine_->file_agent->Pread(img.od, 0, out);
    if (!n.ok() || *n != img.oracle.data.size() || out != img.oracle.data) {
      if (img.writable) {
        ++report.committed_data_lost;
      } else {
        ++report.snapshot_mismatches;
      }
    }
  }

  // I4: structural audit over every file the chaos touched — including the
  // images, whose shared runs exercise the refcount reconciliation. Each
  // file's table and share counts are read through its owner; the claim
  // census spans every shard.
  std::vector<FileId> audit;
  for (GroupId g : groups_) {
    auto replicas = repl.Replicas(g);
    if (replicas.ok()) {
      for (const auto& r : *replicas) audit.push_back(r.file);
    }
  }
  audit.insert(audit.end(), txn_files_.begin(), txn_files_.end());
  audit.insert(audit.end(), agent_file_ids_.begin(), agent_file_ids_.end());
  for (const ImageState& img : images_) audit.push_back(img.id);
  const file::AuditReport fsck = file::AuditFiles(
      [this](FileId id) -> file::FileService& { return f_->OwnerOf(id); },
      audit);
  report.fsck_issues = fsck.issues.size();
  report.fsck_clean = fsck.clean();
  report.fsck_refcounts_checked = fsck.refcounts_checked;
  report.fsck_shared_blocks = fsck.shared_blocks;
}

std::string ChaosReport::Summary() const {
  std::string s;
  s += "ops=" + std::to_string(operations);
  s += " failed=" + std::to_string(op_failures);
  s += " repl_w=" + std::to_string(replicated_writes);
  s += " repl_r=" + std::to_string(replicated_reads);
  s += " commits=" + std::to_string(txn_commits);
  s += " aborts=" + std::to_string(txn_aborts);
  s += " agent_w=" + std::to_string(agent_writes);
  s += " agent_r=" + std::to_string(agent_reads);
  s += " stale_r=" + std::to_string(stale_reads);
  if (snapshots_taken + clones_taken + image_reads + clone_writes > 0) {
    s += " snaps=" + std::to_string(snapshots_taken);
    s += " clones=" + std::to_string(clones_taken);
    s += " clone_w=" + std::to_string(clone_writes);
    s += " image_r=" + std::to_string(image_reads);
  }
  s += " | failovers=" + std::to_string(failovers);
  s += " auto_repairs=" + std::to_string(auto_repairs);
  s += " read_repairs=" + std::to_string(read_repairs);
  s += " token_replays=" + std::to_string(token_replays);
  s += " disk_down=" + std::to_string(disk_failures_seen);
  s += " disk_up=" + std::to_string(disk_recoveries_seen);
  s += " | corrupt=" + std::to_string(corrupt_reads);
  s += " lost=" + std::to_string(committed_data_lost);
  s += " mismatch=" + std::to_string(replica_mismatches);
  s += " unconverged=" + std::to_string(unconverged_groups);
  s += " snap_bad=" + std::to_string(snapshot_mismatches);
  s += " fsck=" + (fsck_clean ? std::string("clean")
                              : std::to_string(fsck_issues) + " issues");
  s += " refcounts=" + std::to_string(fsck_refcounts_checked);
  s += ok() ? " [OK]" : " [VIOLATED]";
  return s;
}

}  // namespace rhodos::core
