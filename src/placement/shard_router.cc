#include "placement/shard_router.h"

namespace rhodos::placement {

std::string FileShardAddress(std::uint32_t shard) {
  return shard == 0 ? "file-service" : "file-service-" + std::to_string(shard);
}

ShardRouter::ShardRouter(std::uint32_t file_shards)
    : map_(file_shards == 0 ? 1 : file_shards) {
  const std::uint32_t n = map_.ShardCount();
  addresses_.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    addresses_.push_back(FileShardAddress(s));
  }
  suspected_.assign(n, false);
}

ShardRouter::Route ShardRouter::Walk(std::uint64_t point) const {
  // A live home (the ring successor, first in the preference order) needs
  // no preference list: the common case allocates nothing.
  const std::uint32_t home = map_.ShardForHash(point);
  if (!suspected_[home]) return Route{home, false};
  for (const std::uint32_t shard : map_.PreferenceForHash(point)) {
    if (!suspected_[shard]) return Route{shard, true};
  }
  // Nobody is live; hand back the home shard and let the RPC layer time
  // out, the same failure the unsharded facility exposes.
  return Route{home, false};
}

ShardRouter::Route ShardRouter::Pick(std::uint64_t point) {
  ++stats_.lookups;
  const Route route = Walk(point);
  if (route.rerouted) ++stats_.reroutes;
  return route;
}

ShardRouter::Route ShardRouter::RouteFile(FileId id) {
  return Pick(Mix64(Resolve(id).value));
}

ShardRouter::Route ShardRouter::Serving(FileId id) const {
  return Walk(Mix64(Resolve(id).value));
}

FileId ShardRouter::Resolve(FileId id) const {
  // Follow the pin chain (clone of a clone of a snapshot...) to the root
  // origin. Cycles cannot form — a pin is registered at capture time and
  // points at a file that already existed — but cap the walk defensively.
  for (std::size_t hops = 0; hops < pins_.size(); ++hops) {
    const auto it = pins_.find(id.value);
    if (it == pins_.end()) break;
    id = FileId{it->second};
  }
  return id;
}

void ShardRouter::PinFileTo(FileId child, FileId origin) {
  if (child.value == origin.value) return;
  pins_[child.value] = origin.value;
}

ShardRouter::Route ShardRouter::RouteToken(std::uint64_t token) {
  return Pick(Mix64(token ^ 0x9e3779b97f4a7c15ULL));
}

void ShardRouter::BumpEpoch() {
  ++epoch_;
  if (fence_) {
    for (std::uint32_t s = 0; s < ShardCount(); ++s) fence_(s);
  }
}

void ShardRouter::SuspectShard(std::uint32_t shard) {
  if (shard >= suspected_.size() || suspected_[shard]) return;
  suspected_[shard] = true;
  ++stats_.suspicions;
  BumpEpoch();
}

void ShardRouter::ReadmitShard(std::uint32_t shard) {
  if (shard >= suspected_.size() || !suspected_[shard]) return;
  suspected_[shard] = false;
  ++stats_.readmissions;
  BumpEpoch();
}

std::uint32_t ShardRouter::SuspectedCount() const {
  std::uint32_t n = 0;
  for (const bool s : suspected_) n += s ? 1 : 0;
  return n;
}

}  // namespace rhodos::placement
