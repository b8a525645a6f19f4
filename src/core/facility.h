// The RHODOS distributed file facility — the assembled architecture of
// Figure 1 (paper §2.2), generalised to N metadata shards.
//
//   client process
//     -> file agent / transaction agent / device agent   (per machine)
//       -> placement layer (shard router / sharded naming)
//         -> file-service shard 0 .. N-1  +  naming shard 0 .. M-1
//           -> block (disk) service                       (per disk, shared)
//
// "Each of these services has been implemented as a separate layer and
// provides a clean interface to its users"; caching exists at each level so
// a request rarely descends all the way. The facade constructs the layers,
// wires the message bus between client machines and the file service, and
// offers the whole-system failure controls (crash / recover) the
// reliability experiments exercise.
//
// Sharding (docs/SHARDING.md): FacilityConfig::sharding partitions the
// metadata plane. Every file-service shard sits on the SAME disk registry
// (the paper's block service is the shared substrate, like Lustre's OSTs
// under multiple MDSes), so ownership is a routing convention: the
// placement map says which shard serves a FileId, and failover is a route
// change, not a data migration. The default config (1 shard) is
// wire-identical to the paper's single-instance topology. The one
// transaction service and the one replication service reach each file
// through OwnerOf(), so every file has one server-side owner.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "agent/device_agent.h"
#include "agent/file_agent.h"
#include "agent/file_service_server.h"
#include "agent/process.h"
#include "agent/transaction_agent.h"
#include "common/sim_clock.h"
#include "disk/disk_registry.h"
#include "file/file_service.h"
#include "naming/naming_service.h"
#include "obs/observability.h"
#include "placement/shard_router.h"
#include "placement/sharded_naming.h"
#include "recovery/failure_detector.h"
#include "recovery/recovery_manager.h"
#include "replication/replication_service.h"
#include "sim/message_bus.h"
#include "txn/transaction_service.h"

namespace rhodos::core {

struct FacilityConfig {
  std::uint32_t disk_count = 1;
  sim::DiskGeometry geometry{};
  // Optional per-disk geometry overrides by disk index (shorter than
  // disk_count is fine; missing entries use `geometry`). The replica-fault
  // bench uses this to model one slow replica among fast ones.
  std::vector<sim::DiskGeometry> per_disk_geometry{};
  std::size_t disk_cache_tracks = 16;
  bool track_readahead = true;
  file::FileServiceConfig file{};
  txn::TxnServiceConfig txn{};
  sim::NetworkConfig network{};
  agent::FileAgentConfig agent{};
  // Callback/lease coherence policy shared by every file-service shard.
  agent::CallbackConfig callback{};
  // Cache-tier read fan-out (E24): load-aware redirect of cold reads on hot
  // files to callback-holding peer agents. Off by default (opt-in trade:
  // one extra exchange per redirected miss for origin-disk relief). Peers
  // vouch only for blocks an unbroken callback promise covers.
  agent::CacheTierConfig cache_tier{};
  replication::ReplicationConfig replication{};
  // Metadata-plane partitioning; the default (1/1) is the paper topology.
  placement::ShardingConfig sharding{};
};

// One client workstation: its agents (paper §3: "on each machine, all
// client processes acquire the services ... through ... a file agent and a
// transaction agent"; "on each machine, there is one process called a
// device agent").
struct Machine {
  MachineId id;
  std::unique_ptr<agent::FileAgent> file_agent;
  std::unique_ptr<agent::DeviceAgent> device_agent;
  std::unique_ptr<agent::TransactionAgentHost> txn_agent;
};

class DistributedFileFacility {
 public:
  explicit DistributedFileFacility(FacilityConfig config = {});
  // Drains the final StatsSnapshot() into the global metrics drain when one
  // is installed (the bench harness's aggregation hook).
  ~DistributedFileFacility();

  DistributedFileFacility(const DistributedFileFacility&) = delete;
  DistributedFileFacility& operator=(const DistributedFileFacility&) = delete;

  // --- Layers ----------------------------------------------------------------

  SimClock& clock() { return clock_; }
  disk::DiskRegistry& disks() { return disks_; }
  // Shard 0's file service: the one file service of a one-shard facility.
  // Reach a given file through OwnerOf(id) at any shard count.
  file::FileService& files() { return files(0); }
  file::FileService& files(std::uint32_t shard) {
    return *file_shards_.at(shard);
  }
  // The file service that serves `id` right now: the shard an agent's
  // RouteFile picks, without counting a route. The transaction and
  // replication services resolve every file through it; a create passes
  // the null FileId{}.
  file::FileService& OwnerOf(FileId id) {
    return *file_shards_[router_->Serving(id).shard];
  }
  std::uint32_t file_shard_count() const {
    return static_cast<std::uint32_t>(file_shards_.size());
  }
  txn::TransactionService& transactions() { return *txns_; }
  placement::ShardedNamingService& naming() { return *naming_; }
  placement::ShardRouter& placement() { return *router_; }
  replication::ReplicationService& replication() { return *replication_; }
  recovery::RecoveryManager& recovery() { return *recovery_; }
  recovery::FailureDetector& detector() { return *detector_; }
  sim::MessageBus& bus() { return bus_; }
  agent::FileServiceServer& file_server() { return *file_servers_[0]; }
  agent::FileServiceServer& file_server(std::uint32_t shard) {
    return *file_servers_.at(shard);
  }
  const FacilityConfig& config() const { return config_; }

  // --- Client machines and processes ------------------------------------------

  Machine& AddMachine();
  Machine& machine(std::size_t i) { return *machines_.at(i); }
  std::size_t MachineCount() const { return machines_.size(); }

  agent::ProcessContext CreateProcess();

  // Stream I/O that honours the redirection rules of §3: descriptors below
  // 100 000 go to the machine's device agent, above to its file agent.
  Result<std::uint64_t> WriteStream(Machine& m,
                                    const agent::ProcessContext& process,
                                    ObjectDescriptor stream,
                                    std::span<const std::uint8_t> data);
  Result<std::uint64_t> ReadStream(Machine& m,
                                   const agent::ProcessContext& process,
                                   ObjectDescriptor stream,
                                   std::span<std::uint8_t> out);

  // --- Whole-system failure model -----------------------------------------------

  // Server-side crash: the file service machine and every disk server lose
  // volatile state (caches, delayed writes, async stable queues).
  void CrashServers();

  // Brings disks and services back and runs transaction recovery.
  Status RecoverServers();

  // Single-disk failure controls (the chaos harness's knobs; also reachable
  // through FaultPlan kDiskCrash/kDiskRecover events on the bus).
  Status CrashDisk(DiskId disk);
  Status RecoverDisk(DiskId disk);

  // Network partition of a single disk server: I/O fails with kUnavailable
  // but volatile state survives, unlike CrashDisk. FaultPlan reaches these
  // through kDiskPartition/kDiskHeal events.
  Status PartitionDisk(DiskId disk);
  Status HealDisk(DiskId disk);

  // Zeroes every layer's counters and the metrics registry: right after
  // it, every counter in StatsSnapshot() reads 0.
  void ResetStats();

  // --- Observability -----------------------------------------------------------

  // The facility-wide metrics registry + trace recorder. Tracing is off by
  // default; flip it on with observability().tracer.Enable(true).
  obs::Observability& observability() { return obs_; }

  // Folds every layer's cumulative stats into the registry and returns a
  // point-in-time copy. The name set is fixed at construction (see
  // docs/OBSERVABILITY.md), so two snapshots of any two facilities always
  // carry the same metric names.
  obs::MetricsSnapshot StatsSnapshot();

  // The operator's view: every metric as text (or one JSON object).
  std::string DumpStats(bool json = false);

 private:
  // Declares the histograms and the pushed rpc.circuit_trips, then runs
  // the first PullLayerStats(), which declares every table-row counter and
  // every gauge: the DumpStats() schema is fixed from construction on.
  void DeclareMetrics();
  // Folds each layer's stats table (one constexpr table per *Stats struct,
  // declared next to the struct) into counters, and sets the gauges.
  void PullLayerStats();

  FacilityConfig config_;
  SimClock clock_;
  obs::Observability obs_{&clock_};
  sim::MessageBus bus_;
  disk::DiskRegistry disks_;
  std::unique_ptr<placement::ShardRouter> router_;
  // file_shards_[s] listens on router_->AddressOf(s); shard 0 keeps the
  // historic "file-service" address.
  std::vector<std::unique_ptr<file::FileService>> file_shards_;
  std::unique_ptr<txn::TransactionService> txns_;
  std::unique_ptr<placement::ShardedNamingService> naming_;
  std::unique_ptr<replication::ReplicationService> replication_;
  std::unique_ptr<recovery::FailureDetector> detector_;
  std::unique_ptr<recovery::RecoveryManager> recovery_;
  std::vector<std::unique_ptr<agent::FileServiceServer>> file_servers_;
  std::vector<std::unique_ptr<Machine>> machines_;
  std::uint64_t next_pid_{1};
};

// Address under which the facility's file service listens on the bus.
inline constexpr const char* kFileServiceAddress = "file-service";

}  // namespace rhodos::core
