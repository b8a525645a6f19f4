// The 64x64 free-space run array (paper §4).
//
// "In addition to a bitmap, the disk server also maintains a two dimensional
// array of the order of 64 rows and 64 columns for the maintenance of free
// spaces in the disk. ... The first row stores the references to single free
// fragments available on the disk. Each element of the second row is a
// reference to a group of two contiguous free fragments ... and so on. ...
// The objective of this array is to check quickly whether a requested number
// of contiguous fragments or blocks are available or not."
//
// Row r (0-based) holds up to 64 references to runs of exactly r+1
// contiguous free fragments; the last row additionally absorbs runs longer
// than 64 fragments (reference + actual length). The array is an index — a
// cache of what a bitmap scan would find — so entries may go stale as the
// bitmap changes; every candidate is re-validated against the bitmap before
// being handed out, and the array is rebuilt by scanning the bitmap when it
// runs dry ("the initialization and subsequent updation of this array is
// carried out by scanning the bitmap").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "disk/bitmap.h"
#include "obs/metrics.h"

namespace rhodos::disk {

struct FreeRun {
  FragmentIndex start{kInvalidFragment};
  std::uint64_t length{0};
};

struct FreeSpaceStats {
  std::uint64_t array_hits = 0;      // allocations served from the array
  std::uint64_t array_misses = 0;    // had to rescan the bitmap
  std::uint64_t rebuilds = 0;
  std::uint64_t stale_discards = 0;  // entries invalidated by re-validation
};

inline constexpr obs::CounterField<FreeSpaceStats> kFreeSpaceCounters[] = {
    {"disk.free_space.array_hits", &FreeSpaceStats::array_hits},
    {"disk.free_space.array_misses", &FreeSpaceStats::array_misses},
    {"disk.free_space.rebuilds", &FreeSpaceStats::rebuilds},
    {"disk.free_space.stale_discards", &FreeSpaceStats::stale_discards},
};

class FreeSpaceArray {
 public:
  FreeSpaceArray() : rows_(kFreeSpaceRows) {}

  // Rebuilds the whole array by scanning the bitmap (initialization and
  // refresh path from the paper).
  void RebuildFromBitmap(const Bitmap& bitmap);

  // Records a freed run so subsequent allocations can reuse it without a
  // bitmap scan. Rows are bounded at 64 entries; overflow entries are
  // dropped (the bitmap still knows about them).
  void InsertRun(FragmentIndex start, std::uint64_t length);

  // Finds a run of at least `count` contiguous free fragments, preferring an
  // exact fit (best-fit over the row structure: exact row first, then the
  // nearest longer rows). Validates the candidate against `bitmap`; stale
  // entries are discarded. On success the run is removed from the array and
  // any unused remainder is re-filed. Returns nullopt when no (valid) run of
  // that size is indexed — caller should rebuild or fall back to a scan.
  std::optional<FragmentIndex> TakeRun(std::uint64_t count,
                                       const Bitmap& bitmap);

  // Number of runs currently indexed (across all rows).
  std::size_t IndexedRuns() const;

  // True iff some row >= count-1 holds at least one entry. This is the
  // paper's "check quickly whether a requested number of contiguous
  // fragments or blocks are available" — O(rows) without touching the
  // bitmap. May be optimistically wrong if entries are stale.
  bool MightSatisfy(std::uint64_t count) const;

  const FreeSpaceStats& stats() const { return stats_; }
  void ResetStats() { stats_ = FreeSpaceStats{}; }

 private:
  static std::size_t RowFor(std::uint64_t length) {
    return length >= kFreeSpaceRows ? kFreeSpaceRows - 1 : length - 1;
  }

  std::vector<std::vector<FreeRun>> rows_;
  FreeSpaceStats stats_;
};

}  // namespace rhodos::disk
