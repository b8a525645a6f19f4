// Overlapped multi-device time accounting.
//
// The simulated hardware is driven by single-threaded code, so every disk
// reference naturally charges the shared SimClock *serially* — even when
// the requests land on independent spindles that a real system would keep
// busy simultaneously. That serial charging is exactly why a striped file
// used to read no faster than a single-disk one (E10 measured loop
// overhead, not the paper's scalability claim).
//
// A ParallelSection fixes the accounting without threading the simulator:
// it snapshots the clock at a fork point, times each *lane* (one per
// independent device, replica, …) from that same origin, and on Commit()
// advances the clock to the LATEST lane end plus a per-lane dispatch cost —
// i.e. elapsed = max(lane_i) + dispatch * lanes, not sum(lane_i). Each
// DiskModel still accumulates its own busy time, so per-spindle utilisation
// stats are unchanged; only the wall-clock view becomes overlapped.
//
// Sections nest: an inner section forks from a point at or after the outer
// lane's fork, and commits forward, so the outer max still dominates.
//
// The model has no per-device occupancy: a device that two lanes of one
// section reference would be charged as if it served both at once. Lanes
// must therefore own disjoint device sets. Every DiskModel reference
// reports itself through NoteDeviceReference(), and a device referenced
// from two lanes of one open section counts as a lane conflict
// (LaneConflicts(), which tests pin at zero).
//
// Usage:
//   sim::ParallelSection section(clock);
//   for (auto& sub_batch : per_disk_batches) {
//     section.BeginLane();
//     IssueSubBatch(sub_batch);   // charges the clock as usual
//     section.EndLane();
//   }
//   section.Commit();
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/sim_clock.h"

namespace rhodos::sim {

// CPU cost of dispatching one overlapped sub-batch (building the request,
// handing it to a device queue). Charged per lane at Commit(): fan-out is
// parallel on the devices but serial on the issuing processor.
inline constexpr SimTime kLaneDispatchCost = 20 * kSimMicrosecond;

// Lane conflicts seen by this process (see the header comment).
std::uint64_t LaneConflicts();

// Called by each simulated device on every reference; `device` identifies
// it. Costs one thread-local emptiness test when no section is open.
void NoteDeviceReference(const void* device);

class ParallelSection {
 public:
  explicit ParallelSection(SimClock* clock)
      : clock_(clock), fork_(clock != nullptr ? clock->Now() : 0) {
    if (clock_ != nullptr) Open();
  }

  ParallelSection(const ParallelSection&) = delete;
  ParallelSection& operator=(const ParallelSection&) = delete;

  // Commit() is idempotent, so a section abandoned on an error path still
  // leaves the clock at (or past) the latest lane end it saw.
  ~ParallelSection() { Commit(); }

  // Starts timing a lane from the fork point. Lanes run one after another
  // in real execution order; rewinding models that they *would have*
  // started together.
  void BeginLane() {
    if (clock_ == nullptr) return;
    max_end_ = std::max(max_end_, clock_->Now());
    clock_->RewindTo(fork_);
    in_lane_ = true;
  }

  // Returns the lane's end time (callers that commit at a quorum point keep
  // the ends they care about and pass one to CommitAt()).
  SimTime EndLane() {
    if (clock_ == nullptr) return 0;
    const SimTime end = clock_->Now();
    max_end_ = std::max(max_end_, end);
    ++lanes_;
    in_lane_ = false;
    return end;
  }

  // Advances the clock to the latest lane end, plus the serial dispatch
  // cost of issuing every lane. Safe to call more than once.
  void Commit() {
    if (clock_ == nullptr || committed_) return;
    committed_ = true;
    Close();
    max_end_ = std::max(max_end_, clock_->Now());
    clock_->AdvanceTo(max_end_ +
                      kLaneDispatchCost * static_cast<SimTime>(lanes_));
  }

  // Commits at an explicit lane end instead of the latest one: a quorum
  // write returns when the k-th fastest replica acks, so the caller passes
  // that lane's end and the stragglers' time is NOT charged to the issuing
  // thread (each straggler's device still accrues its own busy time). The
  // clock may rewind here — the last lane executed may have pushed Now past
  // the quorum point — but never below the fork.
  void CommitAt(SimTime lane_end) {
    if (clock_ == nullptr || committed_) return;
    committed_ = true;
    Close();
    const SimTime target = std::max(lane_end, fork_) +
                           kLaneDispatchCost * static_cast<SimTime>(lanes_);
    if (target >= clock_->Now()) {
      clock_->AdvanceTo(target);
    } else {
      clock_->RewindTo(target);
    }
  }

  std::size_t lanes() const { return lanes_; }

 private:
  friend void NoteDeviceReference(const void* device);

  // Register with / leave this thread's stack of open sections.
  void Open();
  void Close();
  // Records that the open lane referenced `device`; counts a conflict if
  // an earlier lane of this section already did.
  void Note(const void* device);

  SimClock* clock_;
  SimTime fork_;
  SimTime max_end_{0};
  std::size_t lanes_{0};
  bool committed_{false};
  bool in_lane_{false};
  // (device, lane index) of every device a lane referenced.
  std::vector<std::pair<const void*, std::size_t>> owners_;
};

// Work grouped by the device it touches, for issuing one lane per device.
// A key may also name a group of devices (a disk's main device and its
// stable mirror, say), so long as no two keys share a device. Groups keep
// the order their keys were first added in, and items keep their order
// within a group.
template <typename Device, typename Item>
class PerDeviceFanOut {
 public:
  void Add(Device device, Item item) {
    auto it = std::find_if(groups_.begin(), groups_.end(),
                           [&](const auto& g) { return g.first == device; });
    if (it == groups_.end()) {
      groups_.emplace_back(device, std::vector<Item>{});
      it = std::prev(groups_.end());
    }
    it->second.push_back(std::move(item));
  }

  // Calls `lane(device, items)` once per device. A single device runs
  // inline: no section opens and no dispatch is charged. Several run as
  // the lanes of one ParallelSection; every lane runs even after another
  // failed, and the first failure is returned.
  template <typename Lane>
  Status Run(SimClock* clock, Lane&& lane) {
    if (groups_.empty()) return OkStatus();
    if (groups_.size() == 1) {
      return lane(groups_.front().first, groups_.front().second);
    }
    Status failed = OkStatus();
    ParallelSection section(clock);
    for (auto& [device, items] : groups_) {
      section.BeginLane();
      Status st = lane(device, items);
      section.EndLane();
      if (!st.ok() && failed.ok()) failed = st;
    }
    section.Commit();
    return failed;
  }

 private:
  std::vector<std::pair<Device, std::vector<Item>>> groups_;
};

}  // namespace rhodos::sim
