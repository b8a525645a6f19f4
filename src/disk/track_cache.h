// Track-grained cache of the disk service (paper §4).
//
// "This service retrieves only those blocks/fragments from a disk track
// which are necessary to immediately fulfill the requirement of a read
// request. Then the disk service caches the rest of the data from the same
// track ... to satisfy any subsequent requests to read data from
// blocks/fragments pertaining to the same track."
//
// The cache is organized per track: each resident track holds a presence
// bit and a dirty bit per fragment slot. Eviction is LRU over whole tracks;
// a crash clears the cache (it is volatile), which is what makes the stable
// storage and flush semantics of the disk server meaningful.
#pragma once

#include <cstdint>
#include <functional>
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
  std::uint64_t dirty_writebacks = 0;

  double HitRate() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

inline constexpr obs::CounterField<TrackCacheStats> kTrackCacheCounters[] = {
    {"disk.cache.hits", &TrackCacheStats::hits},
    {"disk.cache.misses", &TrackCacheStats::misses},
    {"disk.cache.evictions", &TrackCacheStats::evictions},
    {"disk.cache.dirty_writebacks", &TrackCacheStats::dirty_writebacks},
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

  // Installs fragments into the cache, evicting LRU tracks as needed.
  // `dirty` marks them as not yet on the platter (delayed-write policy).
  void Install(FragmentIndex first, std::uint32_t count,
               std::span<const std::uint8_t> data, bool dirty = false);

  // Invokes fn(fragment, span) for every dirty fragment and marks it clean.
  // The disk server uses this to implement flush_block. fn must not mutate
  // the cache.
  void FlushDirty(
      const std::function<void(FragmentIndex, std::span<const std::uint8_t>)>&
          fn);

  // As FlushDirty, but only for dirty fragments within [first, first+count);
  // fragments outside the range stay dirty.
  void FlushDirtyRange(
      FragmentIndex first, std::uint32_t count,
      const std::function<void(FragmentIndex, std::span<const std::uint8_t>)>&
          fn);

  // Count of dirty fragments currently held.
  std::size_t DirtyCount() const;

  // Drops everything: models loss of volatile memory at a crash.
  void InvalidateAll();

  const TrackCacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TrackCacheStats{}; }

 private:
  struct TrackEntry {
    std::vector<std::uint8_t> data;    // fragments_per_track * kFragmentSize
    std::vector<bool> present;
    std::vector<bool> dirty;
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
