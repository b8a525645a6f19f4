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
                         std::span<const std::uint8_t> data, bool dirty) {
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
    const auto at = static_cast<std::ptrdiff_t>(slot);
    std::fill_n(entry.present.begin() + at, n, true);
    if (dirty) std::fill_n(entry.dirty.begin() + at, n, true);
    i += n;
  }
  EvictIfNeeded();
}

void TrackCache::FlushDirty(
    const std::function<void(FragmentIndex, std::span<const std::uint8_t>)>&
        fn) {
  FlushDirtyRange(0, ~std::uint32_t{0},
                  fn);  // whole address space: every dirty fragment
}

void TrackCache::FlushDirtyRange(
    FragmentIndex first, std::uint32_t count,
    const std::function<void(FragmentIndex, std::span<const std::uint8_t>)>&
        fn) {
  const FragmentIndex end =
      count == ~std::uint32_t{0} ? ~FragmentIndex{0} : first + count;
  // Map order: it decides the order fragments reach the platter.
  tracks_.ForEach([&](std::uint64_t track, TrackEntry& entry) {
    for (std::uint32_t slot = 0; slot < fragments_per_track_; ++slot) {
      if (!entry.dirty[slot]) continue;
      const FragmentIndex f = track * fragments_per_track_ + slot;
      if (f < first || f >= end) continue;
      fn(f, {entry.data.data() + slot * kFragmentSize, kFragmentSize});
      entry.dirty[slot] = false;
      ++stats_.dirty_writebacks;
    }
  });
}

std::size_t TrackCache::DirtyCount() const {
  std::size_t n = 0;
  tracks_.ForEach([&n](std::uint64_t, const TrackEntry& entry) {
    for (bool d : entry.dirty) n += d ? 1 : 0;
  });
  return n;
}

void TrackCache::InvalidateAll() { tracks_.Clear(); }

TrackCache::TrackEntry& TrackCache::Touch(std::uint64_t track) {
  if (TrackEntry* entry = tracks_.Touch(track)) return *entry;
  TrackEntry entry;
  entry.data.resize(static_cast<std::size_t>(fragments_per_track_) *
                    kFragmentSize);
  entry.present.assign(fragments_per_track_, false);
  entry.dirty.assign(fragments_per_track_, false);
  return tracks_.Insert(track, std::move(entry));
}

void TrackCache::EvictIfNeeded() {
  while (tracks_.size() > capacity_tracks_) {
    // Evict the least-recently-used *clean* track; keep dirty tracks until
    // flushed. If everything is dirty, evict the LRU track anyway — the
    // caller is responsible for flushing before relying on delayed writes.
    tracks_.Erase(*tracks_.Victim([](std::uint64_t, const TrackEntry& e) {
      return std::find(e.dirty.begin(), e.dirty.end(), true) == e.dirty.end();
    }));
    ++stats_.evictions;
  }
}

}  // namespace rhodos::disk
