#include "disk/track_cache.h"

#include <algorithm>
#include <cstring>

namespace rhodos::disk {

bool TrackCache::Contains(FragmentIndex f) const {
  const TrackEntry* entry = tracks_.Peek(TrackOf(f));
  return entry != nullptr && entry->present[f % fragments_per_track_];
}

bool TrackCache::Lookup(FragmentIndex first, std::uint32_t count,
                        std::span<std::uint8_t> out) {
  if (!enabled()) {
    stats_.misses += count;
    return false;
  }
  // First pass: residency check without disturbing LRU order on a miss.
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!Contains(first + i)) {
      stats_.misses += count;
      return false;
    }
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const FragmentIndex f = first + i;
    TrackEntry& entry = Touch(TrackOf(f));
    const std::size_t slot = f % fragments_per_track_;
    std::memcpy(out.data() + static_cast<std::size_t>(i) * kFragmentSize,
                entry.data.data() + slot * kFragmentSize, kFragmentSize);
  }
  stats_.hits += count;
  return true;
}

void TrackCache::Update(FragmentIndex first, std::uint32_t count,
                        std::span<const std::uint8_t> data) {
  for (std::uint32_t i = 0; i < count; ++i) {
    const FragmentIndex f = first + i;
    TrackEntry* entry = tracks_.Peek(TrackOf(f));
    if (entry == nullptr) continue;
    const std::size_t slot = f % fragments_per_track_;
    std::memcpy(entry->data.data() + slot * kFragmentSize,
                data.data() + static_cast<std::size_t>(i) * kFragmentSize,
                kFragmentSize);
    entry->present[slot] = true;
  }
}

void TrackCache::Install(FragmentIndex first, std::uint32_t count,
                         std::span<const std::uint8_t> data) {
  if (!enabled()) return;
  // One touch and one copy per track segment: the recency order is what a
  // touch per fragment would leave, since eviction waits for the end.
  for (std::uint32_t i = 0; i < count;) {
    const FragmentIndex f = first + i;
    const std::size_t slot = f % fragments_per_track_;
    const std::uint32_t n = std::min<std::uint32_t>(
        count - i, fragments_per_track_ - static_cast<std::uint32_t>(slot));
    TrackEntry& entry = Touch(TrackOf(f));
    std::memcpy(entry.data.data() + slot * kFragmentSize,
                data.data() + static_cast<std::size_t>(i) * kFragmentSize,
                static_cast<std::size_t>(n) * kFragmentSize);
    std::fill_n(entry.present.begin() + static_cast<std::ptrdiff_t>(slot), n,
                true);
    i += n;
  }
  EvictIfNeeded();
}

void TrackCache::InvalidateAll() { tracks_.Clear(); }

TrackCache::TrackEntry& TrackCache::Touch(std::uint64_t track) {
  if (TrackEntry* entry = tracks_.Touch(track)) return *entry;
  TrackEntry entry;
  entry.data.resize(static_cast<std::size_t>(fragments_per_track_) *
                    kFragmentSize);
  entry.present.assign(fragments_per_track_, false);
  return tracks_.Insert(track, std::move(entry));
}

void TrackCache::EvictIfNeeded() {
  while (tracks_.size() > capacity_tracks_) {
    tracks_.Erase(*tracks_.Lru());
    ++stats_.evictions;
  }
}

}  // namespace rhodos::disk
