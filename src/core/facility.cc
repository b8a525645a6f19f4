#include "core/facility.h"

#include <cstdlib>

namespace rhodos::core {

DistributedFileFacility::DistributedFileFacility(FacilityConfig config)
    : config_(config), bus_(&clock_, config.network) {
  for (std::uint32_t i = 0; i < config_.disk_count; ++i) {
    disk::DiskServerConfig dc;
    dc.geometry = i < config_.per_disk_geometry.size()
                      ? config_.per_disk_geometry[i]
                      : config_.geometry;
    dc.cache_capacity_tracks = config_.disk_cache_tracks;
    dc.track_readahead = config_.track_readahead;
    dc.fault_seed = 100 + i;
    disks_.AddDisk(dc, &clock_);
  }
  const std::uint32_t file_shards =
      config_.sharding.file_shards == 0 ? 1 : config_.sharding.file_shards;
  router_ = std::make_unique<placement::ShardRouter>(file_shards);
  // Every shard serves from the SAME disk registry: ownership is a routing
  // convention, so a failover target can load any file's index table from
  // the shared substrate. Every shard runs the configured write policy; the
  // epoch fence flushes before it purges. A shard's id salts its version
  // tokens and picks its snapshot journal slot.
  for (std::uint32_t s = 0; s < file_shards; ++s) {
    file::FileServiceConfig fc = config_.file;
    fc.shard = s;
    file_shards_.push_back(
        std::make_unique<file::FileService>(&disks_, &clock_, fc));
  }
  naming_ = std::make_unique<placement::ShardedNamingService>(
      config_.sharding.naming_shards);
  // The transaction service reserves its log region on disk 0 before any
  // file allocation touches it. One intention log and one replica-group
  // table sit above every shard: both services reach each file through its
  // owner, so a transaction spanning shards commits atomically and nothing
  // they cache can go stale behind an agent's back.
  const file::FileResolver owner_of =
      [this](FileId id) -> file::FileService& { return OwnerOf(id); };
  txns_ = std::make_unique<txn::TransactionService>(&disks_, owner_of,
                                                    config_.txn);
  // Every shard asks the log's claims: any shard may serve a named file.
  for (auto& shard : file_shards_) shard->SetLogClaims(&txns_->claims());
  replication_ = std::make_unique<replication::ReplicationService>(
      &disks_, &clock_, owner_of, config_.replication);
  // One recovery loop at every shard count, one included: each Tick()
  // observes every disk and probes every shard through the one detector.
  detector_ = std::make_unique<recovery::FailureDetector>(&bus_);
  recovery_ = std::make_unique<recovery::RecoveryManager>(
      &disks_, replication_.get(), detector_.get(), router_.get());
  router_->SetFenceHook([this](std::uint32_t s) {
    // Epoch fence: flush (best effort per file; what cannot be written is
    // lost as in a server crash), then purge the shard's volatile state and
    // bump its version tokens, so every client revalidates blocks it cached
    // from whichever shard served the file before the route change.
    // Callback promises are dropped WITHOUT grace: the epoch bump revokes
    // the agents' trust in them synchronously, so — unlike a real crash —
    // no writer needs to wait out the lost leases.
    (void)file_shards_[s]->FlushAll();
    if (s < file_servers_.size()) file_servers_[s]->DropCallbacksFenced();
    file_shards_[s]->Crash();
  });
  for (std::uint32_t s = 0; s < file_shards; ++s) {
    file_servers_.push_back(std::make_unique<agent::FileServiceServer>(
        file_shards_[s].get(), &bus_, router_->AddressOf(s), config_.callback,
        config_.cache_tier));
  }
  // Observability: one bundle for the whole facility. The bus carries it to
  // every RpcClient and file agent; server-side layers get it directly.
  bus_.SetObservability(&obs_);
  for (auto& shard : file_shards_) shard->SetObservability(&obs_);
  txns_->SetObservability(&obs_);
  replication_->SetObservability(&obs_);
  for (std::uint32_t i = 0; i < config_.disk_count; ++i) {
    if (auto server = disks_.Get(DiskId{i}); server.ok()) {
      (*server)->SetObservability(&obs_);
    }
  }
  DeclareMetrics();
  // FaultPlan disk events name disks by DiskFaultTarget(id); the bus knows
  // nothing about disks, so it hands those events back to the facility.
  bus_.SetFaultHandler([this](const sim::FaultEvent& ev) {
    const std::string prefix = "disk-";
    if (ev.target.rfind(prefix, 0) != 0) return;
    const DiskId disk{static_cast<std::uint32_t>(
        std::strtoul(ev.target.c_str() + prefix.size(), nullptr, 10))};
    if (ev.action == sim::FaultAction::kDiskCrash) {
      (void)CrashDisk(disk);
    } else if (ev.action == sim::FaultAction::kDiskRecover) {
      (void)RecoverDisk(disk);
    } else if (ev.action == sim::FaultAction::kDiskPartition) {
      (void)PartitionDisk(disk);
    } else if (ev.action == sim::FaultAction::kDiskHeal) {
      (void)HealDisk(disk);
    }
  });
}

Status DistributedFileFacility::CrashDisk(DiskId disk) {
  RHODOS_ASSIGN_OR_RETURN(disk::DiskServer * server, disks_.Get(disk));
  server->Crash();
  return OkStatus();
}

Status DistributedFileFacility::RecoverDisk(DiskId disk) {
  RHODOS_ASSIGN_OR_RETURN(disk::DiskServer * server, disks_.Get(disk));
  if (server->crashed()) return server->Recover();
  return OkStatus();
}

Status DistributedFileFacility::PartitionDisk(DiskId disk) {
  RHODOS_ASSIGN_OR_RETURN(disk::DiskServer * server, disks_.Get(disk));
  server->SetPartitioned(true);
  return OkStatus();
}

Status DistributedFileFacility::HealDisk(DiskId disk) {
  RHODOS_ASSIGN_OR_RETURN(disk::DiskServer * server, disks_.Get(disk));
  server->SetPartitioned(false);
  return OkStatus();
}

Machine& DistributedFileFacility::AddMachine() {
  auto m = std::make_unique<Machine>();
  m->id = MachineId{static_cast<std::uint32_t>(machines_.size())};
  // Agents always go through the router; with one shard every route is
  // shard 0 at the historic address, identical to the unrouted path.
  m->file_agent = std::make_unique<agent::FileAgent>(
      m->id, &bus_, router_.get(), naming_.get(), config_.agent);
  m->device_agent = std::make_unique<agent::DeviceAgent>(naming_.get());
  m->txn_agent = std::make_unique<agent::TransactionAgentHost>(
      m->id, txns_.get(), naming_.get());
  m->txn_agent->SetObservability(&obs_);
  machines_.push_back(std::move(m));
  return *machines_.back();
}

agent::ProcessContext DistributedFileFacility::CreateProcess() {
  return agent::ProcessContext{ProcessId{next_pid_++}};
}

Result<std::uint64_t> DistributedFileFacility::WriteStream(
    Machine& m, const agent::ProcessContext& process, ObjectDescriptor stream,
    std::span<const std::uint8_t> data) {
  RHODOS_ASSIGN_OR_RETURN(ObjectDescriptor target,
                          process.ResolveStream(stream));
  if (IsDeviceDescriptor(target)) {
    if (target == kStdoutDescriptor || target == kStderrDescriptor) {
      return m.device_agent->WriteStandard(target, data);
    }
    return m.device_agent->Write(target, data);
  }
  return m.file_agent->Write(target, data);
}

Result<std::uint64_t> DistributedFileFacility::ReadStream(
    Machine& m, const agent::ProcessContext& process, ObjectDescriptor stream,
    std::span<std::uint8_t> out) {
  RHODOS_ASSIGN_OR_RETURN(ObjectDescriptor target,
                          process.ResolveStream(stream));
  if (IsDeviceDescriptor(target)) {
    if (target == kStdinDescriptor) {
      return m.device_agent->ReadStandard(out);
    }
    return m.device_agent->Read(target, out);
  }
  return m.file_agent->Read(target, out);
}

void DistributedFileFacility::CrashServers() {
  for (auto& shard : file_shards_) shard->Crash();
  disks_.CrashAll();
}

Status DistributedFileFacility::RecoverServers() {
  RHODOS_RETURN_IF_ERROR(disks_.RecoverAll());
  // Snapshot-journal redo must run before transaction recovery: a committed
  // transaction's redo may touch files whose COW splits or refcount edits
  // were mid-flight at the crash, and redo assumes those are settled.
  for (auto& shard : file_shards_) {
    RHODOS_RETURN_IF_ERROR(shard->RecoverSnapshots());
  }
  return txns_->Recover();
}

void DistributedFileFacility::ResetStats() {
  bus_.ResetStats();
  for (auto& m : machines_) {
    m->file_agent->ResetStats();
    m->txn_agent->ResetStats();
  }
  for (auto& server : file_servers_) server->ResetStats();
  for (auto& shard : file_shards_) shard->ResetStats();
  router_->ResetStats();
  naming_->ResetStats();
  txns_->ResetStats();
  txns_->locks().ResetStats();
  txns_->log().ResetStats();
  txns_->pipeline().ResetStats();
  replication_->ResetStats();
  recovery_->ResetStats();
  detector_->ResetStats();
  disks_.ResetStats();
  obs_.metrics.Reset();
}

// --- observability -------------------------------------------------------------

DistributedFileFacility::~DistributedFileFacility() {
  if (obs::MetricsRegistry* drain = obs::GlobalMetricsDrain()) {
    drain->Merge(StatsSnapshot());
  }
}

void DistributedFileFacility::DeclareMetrics() {
  constexpr const char* kHistograms[] = {
      "agent.op_latency_ns", "agent.peer_serve_latency_ns",
      "disk.reference_ns", "disk.seek_ns",
      "replication.hint_age_ns", "replication.staleness_ns",
      "rpc.backoff_ns", "rpc.call_latency_ns", "txn.commit_latency_ns",
      "txn.group_commit.ack_latency_ns", "txn.group_commit.batch_records",
  };
  for (const char* name : kHistograms) obs_.metrics.DeclareHistogram(name);
  // The one pushed counter no stats table carries (see RpcClient::Call).
  obs_.metrics.DeclareCounter("rpc.circuit_trips");
  // The first pull sets, and so declares, every table row and every gauge.
  PullLayerStats();
}

void DistributedFileFacility::PullLayerStats() {
  using disk::DiskServer;
  obs::CounterFold fold;
  fold.Sum(sim::kNetCounters, bus_.stats());
  fold.Sum(agent::kFileAgentCounters, machines_,
           [](const Machine& m) -> auto& { return m.file_agent->stats(); });
  fold.Sum(sim::kRpcCounters, machines_, [](const Machine& m) -> auto& {
    return m.file_agent->rpc_health();
  });
  fold.Sum(agent::kTxnAgentCounters, machines_,
           [](const Machine& m) -> auto& { return m.txn_agent->stats(); });
  fold.Sum(agent::kTxnAgentCacheCounters, machines_,
           [](const Machine& m) -> auto& {
             return m.txn_agent->cache_stats();
           });
  fold.Sum(agent::kFsServerCounters, file_servers_,
           &agent::FileServiceServer::stats);
  fold.Sum(file::kFileServiceCounters, file_shards_,
           &file::FileService::stats);
  fold.Sum(placement::kShardRouterCounters, router_->stats());
  fold.Sum(placement::kNamingShardingCounters, naming_->sharding_stats());
  fold.Sum(naming::kNamingCounters, naming_->stats());
  fold.Sum(txn::kLockCounters, txns_->locks().stats());
  fold.Sum(txn::kTxnServiceCounters, txns_->stats());
  fold.Sum(txn::kLogPipelineCounters, txns_->pipeline().stats());
  fold.Sum(txn::kTxnLogCounters, txns_->log().stats());
  fold.Sum(replication::kReplicationCounters, replication_->stats());
  fold.Sum(recovery::kRecoveryCounters, recovery_->stats());
  fold.Sum(recovery::kFailureDetectorCounters, detector_->stats());
  const auto& disks = disks_.disks();
  fold.Sum(sim::kDiskCounters, disks, &DiskServer::main_stats);
  fold.Sum(sim::kStableDiskCounters, disks, &DiskServer::stable_stats);
  fold.Sum(disk::kTrackCacheCounters, disks, &DiskServer::cache_stats);
  fold.Sum(disk::kFreeSpaceCounters, disks, &DiskServer::free_space_stats);
  fold.Sum(disk::kVecIoCounters, disks, &DiskServer::vec_stats);
  obs::MetricsRegistry& m = obs_.metrics;
  fold.SetCounters(m);

  const auto gauge = [&m](std::string_view name, auto value) {
    m.SetGauge(name, static_cast<double>(value));
  };
  std::size_t callback_holders = 0;
  std::size_t hot_files = 0;
  for (const auto& server : file_servers_) {
    callback_holders += server->CallbackHolderCount();
    hot_files += server->HotFileCount();
  }
  std::uint64_t shared_blocks = 0;
  for (const auto& shard : file_shards_) {
    shared_blocks += shard->SharedBlockCount();
  }
  std::uint64_t free_fragments = 0;
  for (const auto& d : disks) free_fragments += d->FreeFragmentCount();
  gauge("file.callback_holders", callback_holders);
  gauge("file.hot_files", hot_files);
  gauge("file.shared_blocks", shared_blocks);
  gauge("facility.disk_count", config_.disk_count);
  gauge("facility.machine_count", machines_.size());
  gauge("facility.sim_now_ns", clock_.Now());
  gauge("placement.epoch", router_->epoch());
  gauge("placement.file_shards", router_->ShardCount());
  gauge("placement.naming_shards", naming_->ShardCount());
  gauge("disk.free_fragments", free_fragments);
  gauge("replication.hint_queue_depth", replication_->TotalPendingHints());
}

obs::MetricsSnapshot DistributedFileFacility::StatsSnapshot() {
  PullLayerStats();
  return obs_.metrics.Snapshot();
}

std::string DistributedFileFacility::DumpStats(bool json) {
  const obs::MetricsSnapshot snap = StatsSnapshot();
  return json ? snap.ToJson() : snap.ToText();
}

}  // namespace rhodos::core
