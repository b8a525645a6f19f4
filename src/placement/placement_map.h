// Deterministic placement map for the sharded metadata plane.
//
// The paper's Figure-1 stack has exactly one file service and one naming
// service; partitioning them across N instances needs a *pure function*
// from key to shard that every agent computes identically, with no
// directory lookups on the hot path. This is consistent hashing with
// virtual nodes (the Lustre-MDS-split analogue of our reproduction):
//
//  * each shard owns kVirtualNodes points on a 64-bit ring; a key hashes
//    to a point and belongs to the first shard point at or clockwise after
//    it;
//  * adding or removing a shard moves only the keys whose ring successor
//    changed — about 1/N of them (a property test pins this);
//  * the ring walk past the owner yields a deterministic preference order,
//    which is what the failover router uses to route around a suspected
//    shard: every agent independently picks the same survivor.
//
// FileIds hash through a 64-bit integer mixer; naming attribute keys hash
// through FNV-1a. Both are fixed-forever functions: the placement of a key
// is part of the wire contract between agents and shards.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace rhodos::placement {

// SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer.
std::uint64_t Mix64(std::uint64_t x);

// FNV-1a over the bytes of `s` (attribute keys, addresses).
std::uint64_t HashKey(std::string_view s);

// Ring points per shard. More virtual nodes smooth the load split at the
// cost of a larger ring (lookups stay O(log ring)).
inline constexpr std::uint32_t kVirtualNodes = 64;

class PlacementMap {
 public:
  // Shards are numbered 0..shard_count-1.
  explicit PlacementMap(std::uint32_t shard_count = 1);

  void AddShard(std::uint32_t shard);
  void RemoveShard(std::uint32_t shard);
  bool Contains(std::uint32_t shard) const { return shards_.count(shard) != 0; }
  std::uint32_t ShardCount() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  // Ring successor of an arbitrary 64-bit point.
  std::uint32_t ShardForHash(std::uint64_t point) const;

  std::uint32_t ShardForFile(FileId id) const {
    return ShardForHash(Mix64(id.value));
  }
  // Creation routing: the FileId does not exist yet (the server mints it),
  // so creates spread by their idempotency token instead.
  std::uint32_t ShardForToken(std::uint64_t token) const {
    return ShardForHash(Mix64(token ^ 0x9e3779b97f4a7c15ULL));
  }
  // Naming-index routing hashes the attribute *key* (not the value): every
  // registration carrying a given key lands on one shard, so a query on
  // that key is answered from a single posting-list owner.
  std::uint32_t ShardForKey(std::string_view attribute_key) const {
    return ShardForHash(HashKey(attribute_key));
  }

  // Distinct shards in ring-walk order from `point`: the owner first, then
  // each successive failover candidate. Deterministic given the ring.
  std::vector<std::uint32_t> PreferenceForHash(std::uint64_t point) const;
  std::vector<std::uint32_t> PreferenceForFile(FileId id) const {
    return PreferenceForHash(Mix64(id.value));
  }

 private:
  std::set<std::uint32_t> shards_;
  // point -> shard. Ties cannot happen in practice (64-bit points), but the
  // map keeps the smaller shard id deterministically if they did.
  std::map<std::uint64_t, std::uint32_t> ring_;
};

}  // namespace rhodos::placement
