#include "placement/placement_map.h"

namespace rhodos::placement {

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t HashKey(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

PlacementMap::PlacementMap(std::uint32_t shard_count) {
  for (std::uint32_t s = 0; s < shard_count; ++s) AddShard(s);
}

void PlacementMap::AddShard(std::uint32_t shard) {
  if (!shards_.insert(shard).second) return;
  for (std::uint32_t v = 0; v < kVirtualNodes; ++v) {
    const std::uint64_t point =
        Mix64((static_cast<std::uint64_t>(shard) << 32) | v);
    auto [it, inserted] = ring_.emplace(point, shard);
    if (!inserted && shard < it->second) it->second = shard;
  }
}

void PlacementMap::RemoveShard(std::uint32_t shard) {
  if (shards_.erase(shard) == 0) return;
  for (auto it = ring_.begin(); it != ring_.end();) {
    it = (it->second == shard) ? ring_.erase(it) : std::next(it);
  }
}

std::uint32_t PlacementMap::ShardForHash(std::uint64_t point) const {
  if (ring_.empty()) return 0;
  auto it = ring_.lower_bound(point);
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->second;
}

std::vector<std::uint32_t> PlacementMap::PreferenceForHash(
    std::uint64_t point) const {
  std::vector<std::uint32_t> order;
  order.reserve(shards_.size());
  std::set<std::uint32_t> seen;
  if (ring_.empty()) return order;
  auto it = ring_.lower_bound(point);
  for (std::size_t steps = 0; steps < ring_.size() && seen.size() < shards_.size();
       ++steps) {
    if (it == ring_.end()) it = ring_.begin();
    if (seen.insert(it->second).second) order.push_back(it->second);
    ++it;
  }
  return order;
}

}  // namespace rhodos::placement
