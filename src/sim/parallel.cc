#include "sim/parallel.h"

#include <atomic>

namespace rhodos::sim {

namespace {

std::atomic<std::uint64_t> lane_conflicts{0};

// Sections open on this thread, innermost last. Lanes are replayed on the
// thread that opened their section, so the audit needs no locking.
thread_local std::vector<ParallelSection*> open_sections;

}  // namespace

std::uint64_t LaneConflicts() {
  return lane_conflicts.load(std::memory_order_relaxed);
}

void NoteDeviceReference(const void* device) {
  for (ParallelSection* s : open_sections) s->Note(device);
}

void ParallelSection::Open() { open_sections.push_back(this); }

void ParallelSection::Close() {
  auto it = std::find(open_sections.rbegin(), open_sections.rend(), this);
  if (it != open_sections.rend()) open_sections.erase(std::next(it).base());
}

void ParallelSection::Note(const void* device) {
  if (!in_lane_) return;
  auto it = std::find_if(owners_.begin(), owners_.end(),
                         [device](const auto& o) { return o.first == device; });
  if (it == owners_.end()) {
    owners_.emplace_back(device, lanes_);
  } else if (it->second != lanes_) {
    lane_conflicts.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace rhodos::sim
