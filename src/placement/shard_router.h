// Shard router: the liveness-aware layer between agents and the placement
// map.
//
// The PlacementMap answers "which shard *owns* this key"; the router
// answers "which shard should *serve* it right now". The two differ only
// while a shard is suspected by the failure detector: then the router walks
// the key's ring preference order to the first live shard, so every agent
// independently routes around the corpse without coordination (the disk
// substrate is shared, so any shard can load any file's index table — see
// docs/SHARDING.md).
//
// Epoch fencing: every suspicion and every readmission edge bumps a global
// routing epoch and fires the fence hook for every shard. The facility's
// hook flushes the shard (FileService::FlushAll(): delayed writes, hard
// table changes, parked soft attributes) and then purges its volatile
// state (FileService::Crash()), which
//  * guarantees a readmitted shard serves nothing from its pre-failure
//    cache, and
//  * bumps every per-file version token, so client agents revalidate the
//    blocks they cached against whichever shard served them before the
//    routing change.
// The flush is best effort per file: what it cannot write (a file on a
// failed disk) is lost exactly as in a server crash. A facility with one
// shard fences the same way.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"
#include "placement/placement_map.h"

namespace rhodos::placement {

// Shard membership of a facility, carried in FacilityConfig. Defaults are
// the unsharded paper topology (one file service, one naming service).
struct ShardingConfig {
  std::uint32_t file_shards = 1;
  std::uint32_t naming_shards = 1;
};

struct ShardRouterStats {
  std::uint64_t lookups = 0;       // route decisions served
  std::uint64_t reroutes = 0;      // decisions that avoided a suspected home
  std::uint64_t suspicions = 0;    // shard marked suspected (failover edge)
  std::uint64_t readmissions = 0;  // shard readmitted (recovery edge)
};

inline constexpr obs::CounterField<ShardRouterStats> kShardRouterCounters[] = {
    {"placement.lookups", &ShardRouterStats::lookups},
    {"placement.reroutes", &ShardRouterStats::reroutes},
    {"placement.shard_suspicions", &ShardRouterStats::suspicions},
    {"placement.shard_readmissions", &ShardRouterStats::readmissions},
};

class ShardRouter {
 public:
  explicit ShardRouter(std::uint32_t file_shards);

  std::uint32_t ShardCount() const {
    return static_cast<std::uint32_t>(addresses_.size());
  }
  // Bus address of shard `i`: shard 0 keeps the historic "file-service"
  // address of the paper's one file service, shards 1.. listen on
  // "file-service-<i>".
  const std::string& AddressOf(std::uint32_t shard) const {
    return addresses_.at(shard);
  }

  // Pure placement (no liveness, no stats): the owning shard.
  std::uint32_t HomeShard(FileId id) const {
    return map_.ShardForFile(Resolve(id));
  }
  std::uint32_t HomeShardForToken(std::uint64_t token) const {
    return map_.ShardForToken(token);
  }

  struct Route {
    std::uint32_t shard = 0;
    bool rerouted = false;  // served by a failover shard, not the home
  };
  // Liveness-aware route: the home shard unless it is suspected, else the
  // first live shard in the key's ring preference order. When every shard
  // is suspected the home is returned (callers fail with timeouts, exactly
  // like the unsharded facility with its one service down).
  Route RouteFile(FileId id);
  Route RouteToken(std::uint64_t token);
  // The route RouteFile(id) would take, uncounted, so placement.lookups
  // keeps counting agent and naming routes: the server-side services reach
  // a file's owner through it, from concurrent transactions too.
  Route Serving(FileId id) const;

  // Failover state machine edges (driven by the RecoveryManager). Both are
  // idempotent; an actual edge bumps the epoch and fences every shard.
  void SuspectShard(std::uint32_t shard);
  void ReadmitShard(std::uint32_t shard);
  bool Suspected(std::uint32_t shard) const { return suspected_.at(shard); }
  std::uint32_t SuspectedCount() const;
  std::uint64_t epoch() const { return epoch_; }

  // Called once per shard on every epoch bump; the facility installs the
  // volatile-state purge here.
  void SetFenceHook(std::function<void(std::uint32_t)> hook) {
    fence_ = std::move(hook);
  }

  // Snapshots and clones live on their ORIGIN's shard: the image is
  // captured by the source's file service and shares its blocks, so the
  // consistent-hash ring (which would scatter `child` anywhere) must be
  // overridden. Routing for a pinned file resolves through its origin —
  // chains (clone of a clone) resolve to the root — so failover and
  // fencing behave exactly as they do for the origin itself.
  void PinFileTo(FileId child, FileId origin);

  const ShardRouterStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ShardRouterStats{}; }
  const PlacementMap& map() const { return map_; }

 private:
  Route Walk(std::uint64_t point) const;  // the one preference walk
  Route Pick(std::uint64_t point);        // Walk() plus the counters
  void BumpEpoch();
  FileId Resolve(FileId id) const;

  PlacementMap map_;
  std::vector<std::string> addresses_;
  // child -> origin placement pins (snapshot/clone lineage).
  std::unordered_map<std::uint64_t, std::uint64_t> pins_;
  std::vector<bool> suspected_;
  std::uint64_t epoch_ = 0;
  std::function<void(std::uint32_t)> fence_;
  ShardRouterStats stats_;
};

// Address of file-service shard `i` ("file-service" for 0).
std::string FileShardAddress(std::uint32_t shard);

}  // namespace rhodos::placement
