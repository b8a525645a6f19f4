// Sharded naming service: the attribute index partitioned by key hash.
//
// N in-process NamingService shards sit behind one NamingFacade. Ownership
// is by attribute *key*: the placement map hashes each key of a name, and
// every shard owning at least one key receives the FULL registration. That
// duplication is what keeps single-shard queries exact — a file matching a
// query carries every query attribute, so it is fully registered on the
// shard owning any of them, and ResolveFile needs to consult only the shard
// of the query's first key.
//
// The router keeps a tiny directory (FileId → owning shards + global seq)
// so unregister/update fan out to exactly the shards that were touched, and
// so empty-query evaluation (scatter-gather over all shards, dedupe by
// FileId) can restore the global registration order. Sequence numbers are
// assigned here and pushed down via NamingService::RegisterFileAt.
//
// Cross-shard delete: FileAgent::Delete first deletes the file on its file
// shard (tokened, replay-safe), then unregisters the name here. A retry
// after a partial failure sees kNotFound from the side that already
// committed and treats it as success — the idempotency contract
// docs/SHARDING.md spells out.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "naming/naming_service.h"
#include "obs/metrics.h"
#include "placement/placement_map.h"

namespace rhodos::placement {

struct NamingShardingStats {
  std::uint64_t lookups = 0;  // single-shard routing decisions
  // Shard-local registrations performed; exceeds the number of registered
  // files whenever a name's keys span shards (fan-out factor ≥ 1).
  std::uint64_t fanout_registrations = 0;
};

// Routing decisions count toward placement.lookups together with the shard
// router's (kShardRouterCounters).
inline constexpr obs::CounterField<NamingShardingStats>
    kNamingShardingCounters[] = {
        {"placement.lookups", &NamingShardingStats::lookups},
        {"naming.fanout_registrations",
         &NamingShardingStats::fanout_registrations},
};

class ShardedNamingService : public naming::NamingFacade {
 public:
  explicit ShardedNamingService(std::uint32_t naming_shards = 1);

  // --- NamingFacade --------------------------------------------------------

  Status RegisterFile(const naming::AttributedName& name, FileId file) override;
  Status UnregisterFile(FileId file) override;
  Result<FileId> ResolveFile(const naming::AttributedName& query) override;
  std::vector<FileId> EvaluateFiles(
      const naming::AttributedName& query) const override;
  Result<naming::AttributedName> NameOf(FileId file) const override;
  Status UpdateFile(FileId file, const naming::AttributedName& name) override;

  // Devices live on shard 0: the device registry is a handful of entries
  // with linear-scan resolution, not worth partitioning.
  Status RegisterDevice(const naming::AttributedName& name,
                        std::string system_name) override;
  Result<std::string> ResolveDevice(
      const naming::AttributedName& query) override;

  // Aggregated over every shard, plus the router-level counters for paths
  // (empty-query resolution) no single shard serves.
  const naming::NamingStats& stats() const override;
  std::size_t FileCount() const override { return owners_.size(); }
  std::uint64_t generation() const override { return generation_; }

  // --- Sharding surface ----------------------------------------------------

  std::uint32_t ShardCount() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  std::uint32_t ShardForKey(std::string_view attribute_key) const {
    return map_.ShardForKey(attribute_key);
  }
  naming::NamingService& shard(std::uint32_t i) { return *shards_.at(i); }
  const naming::NamingService& shard(std::uint32_t i) const {
    return *shards_.at(i);
  }
  const NamingShardingStats& sharding_stats() const { return sharding_stats_; }
  // Zeroes the router-level, sharding and every shard's counters.
  void ResetStats();
  const PlacementMap& map() const { return map_; }

 private:
  struct Entry {
    std::vector<std::uint32_t> shards;  // owning shards, ascending
    std::uint64_t seq = 0;              // global registration order
  };

  std::vector<std::uint32_t> OwningShards(
      const naming::AttributedName& name) const;

  PlacementMap map_;
  std::vector<std::unique_ptr<naming::NamingService>> shards_;
  std::unordered_map<FileId, Entry> owners_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t generation_ = 0;

  // Resolution counters for queries answered by the router itself.
  naming::NamingStats router_stats_;
  mutable naming::NamingStats agg_stats_;
  mutable NamingShardingStats sharding_stats_;
};

}  // namespace rhodos::placement
