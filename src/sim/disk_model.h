// Simulated disk drive.
//
// The paper evaluates its design with counting arguments: how many disk
// references an operation needs, how far the arm moves, how many fragments
// cross the bus. DiskModel is the measuring instrument for those arguments —
// an in-memory platter with an explicit geometry (tracks of fragments) and a
// classical cost model:
//
//     cost(reference) = seek(track distance) + rotational latency
//                       + transfer(fragment count)
//
// One call to ReadFragments/WriteFragments is one *disk reference* in the
// paper's sense: a single contiguous request, however many fragments long.
// This is exactly the capability the RHODOS disk service exploits when it
// moves a whole contiguous run with one get_block/put_block (§4).
//
// Fault injection supports the reliability experiments: media errors on
// read, torn writes, and whole-disk crash/recover cycles.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace rhodos::sim {

// Geometry and timing of one simulated drive. Defaults approximate an early
// 1990s server drive scaled to the paper's 2 KiB fragments.
struct DiskGeometry {
  std::uint64_t total_fragments = 16 * 1024;  // 32 MiB platter by default
  std::uint32_t fragments_per_track = 32;     // 64 KiB tracks

  // Timing model (simulated nanoseconds).
  SimTime seek_base = 2 * kSimMillisecond;          // arm settle time
  SimTime seek_per_track = 10 * kSimMicrosecond;    // per track crossed
  SimTime rotational_latency = 4 * kSimMillisecond; // average half rotation
  SimTime transfer_per_fragment = 40 * kSimMicrosecond;

  std::uint64_t TrackOf(FragmentIndex f) const {
    return f / fragments_per_track;
  }
  std::uint64_t TrackCount() const {
    return (total_fragments + fragments_per_track - 1) / fragments_per_track;
  }
};

// Fault plan for one drive. Deterministic when driven by the seeded Rng.
struct DiskFaultPlan {
  double media_error_rate = 0.0;  // probability a read reference fails
  // Crash after this many successful write references (-1: never). A crash
  // during a write tears it: only a prefix of the fragments reaches the
  // platter. Models power loss mid-operation.
  std::int64_t crash_after_writes = -1;
};

// Running counters; the benchmarks read these.
struct DiskStats {
  std::uint64_t read_references = 0;
  std::uint64_t write_references = 0;
  std::uint64_t fragments_read = 0;
  std::uint64_t fragments_written = 0;
  std::uint64_t tracks_seeked = 0;   // total track-to-track distance
  SimTime time_charged = 0;          // total simulated latency

  std::uint64_t TotalReferences() const {
    return read_references + write_references;
  }
};

// Main device and stable mirror export under separate prefixes; the
// stable mirror has no arm-travel counter in the schema.
inline constexpr obs::CounterField<DiskStats> kDiskCounters[] = {
    {"disk.read_references", &DiskStats::read_references},
    {"disk.write_references", &DiskStats::write_references},
    {"disk.fragments_read", &DiskStats::fragments_read},
    {"disk.fragments_written", &DiskStats::fragments_written},
    {"disk.tracks_seeked", &DiskStats::tracks_seeked},
    {"disk.time_charged_ns", &DiskStats::time_charged},
};
inline constexpr obs::CounterField<DiskStats> kStableDiskCounters[] = {
    {"disk.stable.read_references", &DiskStats::read_references},
    {"disk.stable.write_references", &DiskStats::write_references},
    {"disk.stable.fragments_read", &DiskStats::fragments_read},
    {"disk.stable.fragments_written", &DiskStats::fragments_written},
    {"disk.stable.time_charged_ns", &DiskStats::time_charged},
};

class DiskModel {
 public:
  explicit DiskModel(DiskGeometry geometry, SimClock* clock,
                     std::uint64_t fault_seed = 1);

  DiskModel(const DiskModel&) = delete;
  DiskModel& operator=(const DiskModel&) = delete;

  const DiskGeometry& geometry() const { return geometry_; }
  const DiskStats& stats() const { return stats_; }
  void ResetStats() { stats_ = DiskStats{}; }

  // Track the arm currently rests on — the elevator scheduler in the disk
  // server reads this to estimate the seek a reference is about to pay.
  std::uint64_t head_track() const { return head_track_; }

  void SetFaultPlan(DiskFaultPlan plan) { faults_ = plan; }

  // Reads `count` fragments starting at `first` into `out` (which must hold
  // count * kFragmentSize bytes). One disk reference. When `charge_seek` is
  // false the request is treated as a *continuation* of the immediately
  // preceding reference — same head pass, so no seek, no rotational latency,
  // and no new reference is counted; only transfer time and fragment
  // counters accrue. The track cache uses this to sweep the rest of a track.
  Status ReadFragments(FragmentIndex first, std::uint32_t count,
                       std::span<std::uint8_t> out, bool charge_seek = true);

  // Writes `count` fragments starting at `first` from `in`. One disk
  // reference (or a continuation when charge_seek is false, as for reads).
  // A torn write (crash mid-reference) persists only a prefix.
  Status WriteFragments(FragmentIndex first, std::uint32_t count,
                        std::span<const std::uint8_t> in,
                        bool charge_seek = true);

  // Crash and recovery. While crashed every operation fails with
  // kDiskCrashed. The platter contents survive the crash (it is the caches
  // above this layer that lose state).
  void Crash() { crashed_ = true; }
  void Recover() { crashed_ = false; }
  bool crashed() const { return crashed_; }

  // Direct platter access for tests and recovery assertions; charges no cost.
  std::span<const std::uint8_t> RawFragment(FragmentIndex f) const;
  void RawOverwrite(FragmentIndex f, std::span<const std::uint8_t> data);

 private:
  Status ValidateRange(FragmentIndex first, std::uint32_t count) const;
  void ChargeReference(FragmentIndex first, std::uint32_t count,
                       bool charge_seek);

  DiskGeometry geometry_;
  SimClock* clock_;
  Rng fault_rng_;
  DiskFaultPlan faults_;
  DiskStats stats_;
  std::vector<std::uint8_t> platter_;
  std::uint64_t head_track_{0};
  std::int64_t writes_until_crash_{-1};
  bool crashed_{false};
};

}  // namespace rhodos::sim
