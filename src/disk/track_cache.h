// Track-grained cache of the disk service (paper §4).
//
// "This service retrieves only those blocks/fragments from a disk track
// which are necessary to immediately fulfill the requirement of a read
// request. Then the disk service caches the rest of the data from the same
// track ... to satisfy any subsequent requests to read data from
// blocks/fragments pertaining to the same track."
//
// The cache is organized per track: each resident track holds a presence
// bit per fragment slot. It holds only copies of what the platter holds —
// every put_block writes the platter before it returns — so eviction is
// plain LRU over whole tracks and a crash, which clears the cache (it is
// volatile), loses no data.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/lru_cache.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace rhodos::disk {

struct TrackCacheStats {
  std::uint64_t hits = 0;          // fragments served from cache
  std::uint64_t misses = 0;        // fragments that needed the disk
  std::uint64_t evictions = 0;     // tracks evicted

  double HitRate() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

inline constexpr obs::CounterField<TrackCacheStats> kTrackCacheCounters[] = {
    {"disk.cache.hits", &TrackCacheStats::hits},
    {"disk.cache.misses", &TrackCacheStats::misses},
    {"disk.cache.evictions", &TrackCacheStats::evictions},
};

class TrackCache {
 public:
  // capacity_tracks == 0 disables caching entirely (the Amoeba
  // "Bullet-server without client caching" configuration the paper warns
  // about; benches use it as the baseline).
  TrackCache(std::uint32_t fragments_per_track, std::size_t capacity_tracks)
      : fragments_per_track_(fragments_per_track),
        capacity_tracks_(capacity_tracks) {}

  bool enabled() const { return capacity_tracks_ > 0; }

  // True iff every fragment of [first, first+count) is resident; copies the
  // data into `out` when it is.
  bool Lookup(FragmentIndex first, std::uint32_t count,
              std::span<std::uint8_t> out);

  // True iff the single fragment is resident (no copy). Used to decide which
  // part of a request still needs the platter.
  bool Contains(FragmentIndex f) const;

  // Copies fragments into the tracks the cache holds already, allocating
  // none and leaving the recency order as it is: keeps the cache coherent
  // under a write without evicting the tracks reads swept in.
  void Update(FragmentIndex first, std::uint32_t count,
              std::span<const std::uint8_t> data);

  // Installs fragments into the cache, evicting LRU tracks as needed.
  void Install(FragmentIndex first, std::uint32_t count,
               std::span<const std::uint8_t> data);

  // Drops everything: models loss of volatile memory at a crash.
  void InvalidateAll();

  const TrackCacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TrackCacheStats{}; }

 private:
  struct TrackEntry {
    std::vector<std::uint8_t> data;    // fragments_per_track * kFragmentSize
    std::vector<bool> present;
  };

  std::uint64_t TrackOf(FragmentIndex f) const {
    return f / fragments_per_track_;
  }
  TrackEntry& Touch(std::uint64_t track);
  void EvictIfNeeded();

  std::uint32_t fragments_per_track_;
  std::size_t capacity_tracks_;
  LruCache<std::uint64_t, TrackEntry> tracks_;
  TrackCacheStats stats_;
};

}  // namespace rhodos::disk
