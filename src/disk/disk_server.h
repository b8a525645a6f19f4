// The RHODOS disk (block) service — one server per disk (paper §4).
//
// Service functions, verbatim from the paper: allocate-block, free-block,
// flush-block, get-block, put-block. Their semantics are shaped by three of
// the paper's commitments:
//
//  * One disk reference per contiguous run: "any operation on a set of
//    contiguous blocks/fragments can be accomplished in one single
//    reference to the disk."
//  * Stable storage: put_block lets the caller direct data "exclusively on
//    stable storage (as in the case of a shadow page) or on its original
//    location and on stable storage (as in the case of the file index
//    table)", synchronously or asynchronously; get_block can read back from
//    main (default) or stable storage.
//  * Track caching: on a read miss, the needed fragments are fetched and
//    the rest of the track is swept into the cache under the same head
//    pass.
//
// Free space is managed by the bitmap (ground truth) plus the 64x64 run
// array (fast index) exactly as §4 describes.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/sim_clock.h"
#include "common/types.h"
#include "disk/bitmap.h"
#include "disk/free_space_array.h"
#include "disk/track_cache.h"
#include "obs/observability.h"
#include "sim/disk_model.h"

namespace rhodos::disk {

// Where put_block persists the data (paper §4).
enum class StableMode : std::uint8_t {
  kNone,               // original location only
  kStableOnly,         // exclusively stable storage (shadow page staging)
  kOriginalAndStable,  // both (vital structures such as file index tables)
};

// Whether put_block returns before or after the stable-storage write.
enum class WriteSync : std::uint8_t { kSynchronous, kAsynchronous };

// Which device get_block reads.
enum class ReadSource : std::uint8_t { kMain, kStable };

// How the main-location write is applied.
enum class WritePolicy : std::uint8_t {
  kWriteThrough,  // cache + platter now
  kDelayed,       // dirty in cache; reaches the platter at flush time
};

struct DiskServerConfig {
  sim::DiskGeometry geometry;
  std::size_t cache_capacity_tracks = 16;
  bool track_readahead = true;  // sweep the rest of the track on read miss
  bool provide_stable_storage = true;
  std::uint64_t fault_seed = 1;
};

// One run of a vectored (scatter/gather) request: `count` fragments from
// `first`, moving to/from the caller-side buffer segment. The segments of
// one call may be disjoint slices of one big buffer (striped reads) or
// independent buffers (cache writebacks).
struct ReadRun {
  FragmentIndex first;
  std::uint32_t count;
  std::span<std::uint8_t> out;  // >= count * kFragmentSize bytes
};

struct WriteRun {
  FragmentIndex first;
  std::uint32_t count;
  std::span<const std::uint8_t> in;  // >= count * kFragmentSize bytes
};

// Counters of the vectored path (summed into `disk.vec_*` /
// `disk.elevator_reorders` by the facility).
struct VecIoStats {
  std::uint64_t requests = 0;          // GetBlocksVec/PutBlocksVec calls
  std::uint64_t runs = 0;              // runs submitted across all calls
  std::uint64_t merged_runs = 0;       // runs coalesced with a neighbour
  std::uint64_t elevator_reorders = 0; // runs the SCAN sort moved
};

inline constexpr obs::CounterField<VecIoStats> kVecIoCounters[] = {
    {"disk.vec_requests", &VecIoStats::requests},
    {"disk.vec_runs", &VecIoStats::runs},
    {"disk.vec_merged_runs", &VecIoStats::merged_runs},
    {"disk.elevator_reorders", &VecIoStats::elevator_reorders},
};

class DiskServer {
 public:
  DiskServer(DiskId id, DiskServerConfig config, SimClock* clock);

  DiskServer(const DiskServer&) = delete;
  DiskServer& operator=(const DiskServer&) = delete;

  DiskId id() const { return id_; }
  const DiskServerConfig& config() const { return config_; }
  // The sim clock this disk bills its reference costs to. NOT thread safe:
  // callers serialize access exactly as they serialize disk operations.
  SimClock* clock() const { return clock_; }

  // --- Allocation (allocate-block / free-block) ---------------------------

  // Allocates `count` *contiguous* fragments; fails with kNoSpace when no
  // contiguous run of that size exists (callers may then ask for smaller
  // runs — that is how files become non-contiguous).
  Result<FragmentIndex> AllocateFragments(std::uint32_t count);

  // Allocates `block_count` contiguous blocks (runs of 4 fragments each).
  Result<FragmentIndex> AllocateBlocks(std::uint32_t block_count);

  // Claims the specific range [first, first+count) if it is entirely free.
  // The file service uses this to grow a file in place, keeping its blocks
  // contiguous (the property the WAL commit path depends on).
  Status AllocateSpecific(FragmentIndex first, std::uint32_t count);

  Status FreeFragments(FragmentIndex first, std::uint32_t count);

  // Fast availability probe via the run array (O(64), no bitmap scan).
  bool MightSatisfyContiguous(std::uint32_t fragment_count) const {
    return free_space_.MightSatisfy(fragment_count);
  }

  std::uint64_t FreeFragmentCount() const { return bitmap_.CountFree(); }
  std::uint64_t TotalFragmentCount() const { return bitmap_.size(); }

  // Whether `f` is currently marked allocated (consistency audits).
  bool IsFragmentAllocated(FragmentIndex f) const {
    return f < bitmap_.size() && bitmap_.IsAllocated(f);
  }

  // Largest contiguous free run, by bitmap scan (diagnostic; benches use it
  // to report fragmentation).
  std::uint64_t LargestFreeRun() const;

  // --- I/O (get-block / put-block / flush-block) --------------------------

  Status GetBlock(FragmentIndex first, std::uint32_t count,
                  std::span<std::uint8_t> out,
                  ReadSource source = ReadSource::kMain);

  Status PutBlock(FragmentIndex first, std::uint32_t count,
                  std::span<const std::uint8_t> in,
                  StableMode stable = StableMode::kNone,
                  WriteSync sync = WriteSync::kSynchronous,
                  WritePolicy policy = WritePolicy::kWriteThrough);

  // --- Vectored I/O --------------------------------------------------------
  // One submission of many runs. The server sorts the runs into one SCAN
  // (elevator) pass over the platter — ascending fragment order — so a
  // multi-extent request seeks monotonically instead of chasing the
  // caller's arrival order, and physically adjacent runs coalesce into a
  // single disk reference. Data still lands in (comes from) each run's own
  // buffer segment, in the caller's order.
  Status GetBlocksVec(std::span<const ReadRun> runs,
                      ReadSource source = ReadSource::kMain);

  Status PutBlocksVec(std::span<const WriteRun> runs,
                      StableMode stable = StableMode::kNone,
                      WriteSync sync = WriteSync::kSynchronous,
                      WritePolicy policy = WritePolicy::kWriteThrough);

  // Forces any delayed-write data for [first, first+count) to the platter.
  Status FlushBlock(FragmentIndex first, std::uint32_t count);
  // Flushes all delayed writes and drains the asynchronous stable queue.
  Status FlushAll();

  // Pending asynchronous stable-storage writes.
  std::size_t PendingStableWrites() const { return stable_queue_.size(); }
  Status DrainStableWrites();

  // --- Metadata persistence & crash recovery ------------------------------

  // Number of fragments at the front of the disk reserved for the bitmap.
  std::uint64_t MetadataFragments() const { return metadata_fragments_; }

  // Writes the bitmap to its reserved region (original + stable): the
  // "vital structural information" of §2.1. The file and transaction
  // services call this at allocation-visible commit points.
  Status PersistMetadata(WriteSync sync = WriteSync::kSynchronous);

  // Machine crash: volatile state (track cache, delayed writes, async
  // stable queue) is lost; the platters survive.
  void Crash();

  // Recovery: reload the bitmap from the metadata region, preferring the
  // main copy and falling back to stable storage if the main copy is torn.
  Status Recover();

  bool crashed() const { return main_.crashed(); }

  // Network partition: the server stops answering I/O (kUnavailable) but
  // keeps its volatile state — cache, delayed writes, stable queue — unlike
  // Crash(). Models a replica that is unreachable yet undamaged.
  void SetPartitioned(bool partitioned) { partitioned_ = partitioned; }
  bool partitioned() const { return partitioned_; }

  // The liveness predicate the recovery loop polls: not crashed and not
  // partitioned away.
  bool Reachable() const { return !crashed() && !partitioned_; }

  // --- Fault injection and statistics --------------------------------------

  void SetFaultPlan(sim::DiskFaultPlan plan) { main_.SetFaultPlan(plan); }

  const sim::DiskStats& main_stats() const { return main_.stats(); }
  const sim::DiskStats& stable_stats() const { return stable_->stats(); }
  const VecIoStats& vec_stats() const { return vec_stats_; }
  const TrackCacheStats& cache_stats() const { return cache_.stats(); }
  const FreeSpaceStats& free_space_stats() const {
    return free_space_.stats();
  }
  void ResetStats();

  // Installed by the facility; null means no tracing/metrics.
  void SetObservability(obs::Observability* o) { obs_ = o; }

  // Test access to the underlying devices.
  sim::DiskModel& main_device() { return main_; }
  sim::DiskModel& stable_device() { return *stable_; }

 private:
  Status CheckReachable() const;
  Status ReadMain(FragmentIndex first, std::uint32_t count,
                  std::span<std::uint8_t> out);
  Status WriteMain(FragmentIndex first, std::uint32_t count,
                   std::span<const std::uint8_t> in, WritePolicy policy);
  Status WriteStable(FragmentIndex first, std::uint32_t count,
                     std::span<const std::uint8_t> in, WriteSync sync);
  void ReadAheadTrack(FragmentIndex first, std::uint32_t count);

  // Seek-distance histogram sample for a reference about to be issued at
  // `first` (converted to simulated seek time — the monotone image of the
  // track distance under the cost model).
  void ObserveSeek(FragmentIndex first);

  struct PendingStableWrite {
    FragmentIndex first;
    std::uint32_t count;
    std::vector<std::uint8_t> data;
  };

  DiskId id_;
  DiskServerConfig config_;
  SimClock* clock_;
  sim::DiskModel main_;
  std::unique_ptr<sim::DiskModel> stable_;  // mirror device (stable storage)
  Bitmap bitmap_;
  FreeSpaceArray free_space_;
  TrackCache cache_;
  std::deque<PendingStableWrite> stable_queue_;
  std::uint64_t metadata_fragments_;
  VecIoStats vec_stats_;
  bool partitioned_ = false;
  obs::Observability* obs_ = nullptr;
};

}  // namespace rhodos::disk
