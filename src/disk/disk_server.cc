#include "disk/disk_server.h"

#include <algorithm>
#include <cstring>

#include "sim/parallel.h"

namespace rhodos::disk {

namespace {

// Size of the serialized bitmap for a disk of `fragments` fragments:
// u64 size + u32 word count + words + u64 checksum.
std::uint64_t SerializedBitmapBytes(std::uint64_t fragments) {
  const std::uint64_t words = (fragments + 63) / 64;
  return 8 + 4 + words * 8 + 8;
}

}  // namespace

DiskServer::DiskServer(DiskId id, DiskServerConfig config, SimClock* clock)
    : id_(id),
      config_(config),
      clock_(clock),
      main_(config.geometry, clock, config.fault_seed),
      // The stable mirror charges no simulated time directly; synchronous
      // stable writes bill their cost onto the caller's clock explicitly so
      // asynchronous ones can stay off the critical path (E11).
      stable_(config.geometry, nullptr, config.fault_seed + 17),
      bitmap_(config.geometry.total_fragments),
      cache_(config.geometry.fragments_per_track,
             config.cache_capacity_tracks),
      metadata_fragments_(
          (SerializedBitmapBytes(config.geometry.total_fragments) +
           kFragmentSize - 1) /
          kFragmentSize) {
  // The metadata region at the front of the disk is never handed out.
  bitmap_.AllocateRange(0, metadata_fragments_);
  free_space_.RebuildFromBitmap(bitmap_);
  // "Format" the disk: persist the initial bitmap so recovery always finds
  // a parsable copy, even if no checkpoint ran before a crash.
  (void)PersistMetadata(WriteSync::kSynchronous);
  main_.ResetStats();
  stable_.ResetStats();
}

// --- Allocation -------------------------------------------------------------

Result<FragmentIndex> DiskServer::AllocateFragments(std::uint32_t count) {
  if (count == 0) {
    return Error{ErrorCode::kInvalidArgument, "allocate of zero fragments"};
  }
  if (auto hit = free_space_.TakeRun(count, bitmap_)) {
    bitmap_.AllocateRange(*hit, count);
    return *hit;
  }
  // The run array went dry or stale: refresh it from the bitmap and retry —
  // this is the paper's "updation ... carried out by scanning the bitmap".
  free_space_.RebuildFromBitmap(bitmap_);
  if (auto hit = free_space_.TakeRun(count, bitmap_)) {
    bitmap_.AllocateRange(*hit, count);
    return *hit;
  }
  return Error{ErrorCode::kNoSpace,
               "no contiguous run of " + std::to_string(count) +
                   " fragments on disk " + std::to_string(id_.value)};
}

Result<FragmentIndex> DiskServer::AllocateBlocks(std::uint32_t block_count) {
  return AllocateFragments(block_count * kFragmentsPerBlock);
}

Status DiskServer::AllocateSpecific(FragmentIndex first,
                                    std::uint32_t count) {
  if (count == 0 || first + count > bitmap_.size()) {
    return {ErrorCode::kBadAddress, "allocate of invalid fragment range"};
  }
  if (first < metadata_fragments_) {
    return {ErrorCode::kPermissionDenied, "metadata region is reserved"};
  }
  if (!bitmap_.IsRangeFree(first, count)) {
    return {ErrorCode::kNoSpace, "requested range is not free"};
  }
  bitmap_.AllocateRange(first, count);
  return OkStatus();
}

Status DiskServer::FreeFragments(FragmentIndex first, std::uint32_t count) {
  if (count == 0 || first + count > bitmap_.size()) {
    return {ErrorCode::kBadAddress, "free of invalid fragment range"};
  }
  if (first < metadata_fragments_) {
    return {ErrorCode::kPermissionDenied, "metadata region is reserved"};
  }
  bitmap_.FreeRange(first, count);
  // File the (possibly coalesced) run for quick reuse. We look left and
  // right in the bitmap so adjacent frees merge into one indexed run —
  // "generally, several contiguous blocks and fragments are allocated or
  // freed simultaneously" (§4). The walk is CAPPED: the array is only a
  // cache of runs (the bitmap stays ground truth), and an unbounded walk
  // would make mass frees quadratic in disk size.
  constexpr FragmentIndex kCoalesceCap = 256;
  FragmentIndex run_start = first;
  while (run_start > metadata_fragments_ && bitmap_.IsFree(run_start - 1) &&
         first - run_start < kCoalesceCap) {
    --run_start;
  }
  FragmentIndex run_end = first + count;
  while (run_end < bitmap_.size() && bitmap_.IsFree(run_end) &&
         run_end - (first + count) < kCoalesceCap) {
    ++run_end;
  }
  free_space_.InsertRun(run_start, run_end - run_start);
  return OkStatus();
}

std::uint64_t DiskServer::LargestFreeRun() const {
  std::uint64_t largest = 0;
  bitmap_.ForEachFreeRun([&largest](FragmentIndex, std::uint64_t len) {
    largest = std::max(largest, len);
  });
  return largest;
}

// --- I/O ---------------------------------------------------------------------

Status DiskServer::ReadMain(FragmentIndex first, std::uint32_t count,
                            std::span<std::uint8_t> out) {
  if (cache_.Lookup(first, count, out)) {
    return OkStatus();  // served without touching the disk
  }
  RHODOS_RETURN_IF_ERROR(main_.ReadFragments(first, count, out));
  cache_.Install(first, count, out);
  if (config_.track_readahead) ReadAheadTrack(first, count);
  return OkStatus();
}

void DiskServer::ReadAheadTrack(FragmentIndex first, std::uint32_t count) {
  // Sweep the uncached remainder of every track the request touched, as a
  // continuation of the same head pass (no seek, no new reference).
  const auto per_track = config_.geometry.fragments_per_track;
  const std::uint64_t first_track = first / per_track;
  const std::uint64_t last_track = (first + count - 1) / per_track;
  std::vector<std::uint8_t> buf;
  for (std::uint64_t t = first_track; t <= last_track; ++t) {
    const FragmentIndex track_begin = t * per_track;
    const FragmentIndex track_end = std::min<FragmentIndex>(
        track_begin + per_track, config_.geometry.total_fragments);
    FragmentIndex f = track_begin;
    while (f < track_end) {
      // Find the next run of fragments that are neither part of the request
      // nor already cached.
      while (f < track_end &&
             ((f >= first && f < first + count) || cache_.Contains(f))) {
        ++f;
      }
      const FragmentIndex run_start = f;
      while (f < track_end && !(f >= first && f < first + count) &&
             !cache_.Contains(f)) {
        ++f;
      }
      const auto run_len = static_cast<std::uint32_t>(f - run_start);
      if (run_len == 0) continue;
      buf.resize(static_cast<std::size_t>(run_len) * kFragmentSize);
      if (main_.ReadFragments(run_start, run_len, buf,
                              /*charge_seek=*/false)
              .ok()) {
        cache_.Install(run_start, run_len, buf);
      }
    }
  }
}

bool DiskServer::TrackCached(FragmentIndex first, std::uint32_t count) const {
  if (!Reachable()) return false;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!cache_.Contains(first + i)) return false;
  }
  return true;
}

Status DiskServer::CheckReachable() const {
  if (partitioned_) {
    return {ErrorCode::kUnavailable,
            "disk-" + std::to_string(id_.value) + " partitioned"};
  }
  return OkStatus();
}

Status DiskServer::WriteMain(FragmentIndex first, std::uint32_t count,
                             std::span<const std::uint8_t> in,
                             CacheFill fill) {
  RHODOS_RETURN_IF_ERROR(main_.WriteFragments(first, count, in));
  if (fill == CacheFill::kAllocate) {
    cache_.Install(first, count, in);
  } else {
    cache_.Update(first, count, in);
  }
  return OkStatus();
}

Status DiskServer::WriteStable(FragmentIndex first, std::uint32_t count,
                               std::span<const std::uint8_t> in,
                               WriteSync sync) {
  if (sync == WriteSync::kAsynchronous) {
    stable_queue_.push_back(PendingStableWrite{
        first, count, std::vector<std::uint8_t>(in.begin(), in.end())});
    return OkStatus();
  }
  const SimTime before = stable_.stats().time_charged;
  RHODOS_RETURN_IF_ERROR(stable_.WriteFragments(first, count, in));
  // Synchronous stable writes hold the caller until the mirror is safe:
  // bill their device time onto the simulated clock.
  if (clock_ != nullptr) {
    clock_->Advance(stable_.stats().time_charged - before);
  }
  return OkStatus();
}

Status DiskServer::PutFreshBlock(FragmentIndex first, std::uint32_t count,
                                 std::span<const std::uint8_t> in,
                                 CacheFill fill) {
  RHODOS_RETURN_IF_ERROR(CheckReachable());
  if (in.size() < static_cast<std::size_t>(count) * kFragmentSize) {
    return {ErrorCode::kInvalidArgument, "put_block buffer too small"};
  }
  obs::SpanScope span(obs::TracerOf(obs_), "disk", "put_block");
  obs::LatencyScope lat(obs_, "disk.reference_ns");
  if (span.recording()) {
    span.SetDetail("disk-" + std::to_string(id_.value) +
                   " fresh original+stable");
  }
  // Both copies are issued together; each lane owns one device.
  sim::ParallelSection section(clock_);
  section.BeginLane();
  ObserveSeek(first, main_.head_track());
  const Status main = WriteMain(first, count, in, fill);
  section.EndLane();
  section.BeginLane();
  const Status mirror = WriteStable(first, count, in, WriteSync::kSynchronous);
  section.EndLane();
  section.Commit();
  RHODOS_RETURN_IF_ERROR(main);
  return mirror;
}

namespace {

// One submission's SCAN (elevator) pass. Counts the submission in `stats`
// when it carries two or more runs, stable-sorts the runs into ascending
// fragment order (counting the runs that moved) and calls
// `serve(first, count, members)` once per group of physically adjacent
// runs — one disk reference each — where `members` indexes `runs` in
// platter order.
template <typename Run, typename Serve>
Status ScanPass(std::span<const Run> runs, VecIoStats& stats, Serve serve) {
  if (runs.size() > 1) {
    stats.requests += 1;
    stats.runs += runs.size();
  }
  std::vector<std::size_t> order(runs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&runs](std::size_t a, std::size_t b) {
                     return runs[a].first < runs[b].first;
                   });
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] != i) ++stats.elevator_reorders;
  }
  const std::span<const std::size_t> sorted{order};
  std::size_t i = 0;
  while (i < order.size()) {
    const FragmentIndex first = runs[order[i]].first;
    FragmentIndex next = first + runs[order[i]].count;
    std::size_t end = i + 1;
    while (end < order.size() && runs[order[end]].first == next) {
      next += runs[order[end]].count;
      ++end;
    }
    stats.merged_runs += end - i - 1;
    RHODOS_RETURN_IF_ERROR(serve(first,
                                 static_cast<std::uint32_t>(next - first),
                                 sorted.subspan(i, end - i)));
    i = end;
  }
  return OkStatus();
}

}  // namespace

void DiskServer::ObserveSeek(FragmentIndex first, std::uint64_t head_track) {
  const std::uint64_t target = config_.geometry.TrackOf(first);
  const std::uint64_t distance =
      target > head_track ? target - head_track : head_track - target;
  obs::Observe(obs_, "disk.seek_ns",
               config_.geometry.seek_base +
                   config_.geometry.seek_per_track *
                       static_cast<SimTime>(distance));
}

std::string DiskServer::SubmissionLabel(std::size_t runs) const {
  return "disk-" + std::to_string(id_.value) +
         (runs > 1 ? " runs=" + std::to_string(runs) : "");
}

Status DiskServer::GetBlocksVec(std::span<const ReadRun> runs,
                                ReadSource source) {
  RHODOS_RETURN_IF_ERROR(CheckReachable());
  for (const ReadRun& r : runs) {
    if (r.out.size() < static_cast<std::size_t>(r.count) * kFragmentSize) {
      return {ErrorCode::kInvalidArgument, "get_block buffer too small"};
    }
  }
  if (runs.empty()) return OkStatus();
  obs::SpanScope span(obs::TracerOf(obs_), "disk", "get_block");
  // A merged group reads into scratch and scatters to the member segments.
  std::vector<std::uint8_t> scratch;
  const std::uint64_t hits_before = cache_.stats().hits;
  Status st = ScanPass(
      runs, vec_stats_,
      [&](FragmentIndex first, std::uint32_t count,
          std::span<const std::size_t> members) -> Status {
        std::span<std::uint8_t> into = runs[members[0]].out;
        if (members.size() > 1) {
          scratch.resize(static_cast<std::size_t>(count) * kFragmentSize);
          into = scratch;
        }
        obs::LatencyScope lat(obs_, "disk.reference_ns");
        if (source == ReadSource::kStable) {
          RHODOS_RETURN_IF_ERROR(stable_.ReadFragments(first, count, into));
        } else {
          const std::uint64_t hits = cache_.stats().hits;
          const std::uint64_t head = main_.head_track();
          RHODOS_RETURN_IF_ERROR(ReadMain(first, count, into));
          // Missed the track cache: the reference went to the platter.
          if (cache_.stats().hits == hits) ObserveSeek(first, head);
        }
        if (members.size() > 1) {
          std::size_t off = 0;
          for (const std::size_t m : members) {
            const ReadRun& r = runs[m];
            const std::size_t bytes =
                static_cast<std::size_t>(r.count) * kFragmentSize;
            std::memcpy(r.out.data(), scratch.data() + off, bytes);
            off += bytes;
          }
        }
        return OkStatus();
      });
  if (span.recording()) {
    span.SetDetail(SubmissionLabel(runs.size()) +
                   (source == ReadSource::kStable         ? " stable"
                    : cache_.stats().hits > hits_before ? " cache-hit"
                                                        : " cache-miss"));
  }
  return st;
}

Status DiskServer::PutBlocksVec(std::span<const WriteRun> runs,
                                StableMode stable, WriteSync sync,
                                CacheFill fill) {
  RHODOS_RETURN_IF_ERROR(CheckReachable());
  for (const WriteRun& r : runs) {
    if (r.in.size() < static_cast<std::size_t>(r.count) * kFragmentSize) {
      return {ErrorCode::kInvalidArgument, "put_block buffer too small"};
    }
  }
  if (runs.empty()) return OkStatus();
  obs::SpanScope span(obs::TracerOf(obs_), "disk", "put_block");
  if (span.recording()) {
    span.SetDetail(SubmissionLabel(runs.size()) +
                   (stable == StableMode::kNone         ? ""
                    : stable == StableMode::kStableOnly ? " stable-only"
                                                        : " original+stable"));
  }
  // A merged group gathers its member segments into scratch.
  std::vector<std::uint8_t> scratch;
  return ScanPass(
      runs, vec_stats_,
      [&](FragmentIndex first, std::uint32_t count,
          std::span<const std::size_t> members) -> Status {
        std::span<const std::uint8_t> data = runs[members[0]].in;
        if (members.size() > 1) {
          scratch.resize(static_cast<std::size_t>(count) * kFragmentSize);
          std::size_t off = 0;
          for (const std::size_t m : members) {
            const WriteRun& r = runs[m];
            const std::size_t bytes =
                static_cast<std::size_t>(r.count) * kFragmentSize;
            std::memcpy(scratch.data() + off, r.in.data(), bytes);
            off += bytes;
          }
          data = scratch;
        }
        obs::LatencyScope lat(obs_, "disk.reference_ns");
        if (stable != StableMode::kStableOnly) {
          ObserveSeek(first, main_.head_track());
          RHODOS_RETURN_IF_ERROR(WriteMain(first, count, data, fill));
        }
        if (stable == StableMode::kNone) return OkStatus();
        return WriteStable(first, count, data, sync);
      });
}

Status DiskServer::DrainStableWrites() {
  RHODOS_RETURN_IF_ERROR(CheckReachable());
  while (!stable_queue_.empty()) {
    PendingStableWrite w = std::move(stable_queue_.front());
    stable_queue_.pop_front();
    RHODOS_RETURN_IF_ERROR(stable_.WriteFragments(w.first, w.count, w.data));
  }
  return OkStatus();
}

// --- Metadata & recovery -----------------------------------------------------

Status DiskServer::PersistMetadata(WriteSync sync) {
  Serializer ser;
  bitmap_.SerializeTo(ser);
  std::vector<std::uint8_t> region(metadata_fragments_ * kFragmentSize, 0);
  std::memcpy(region.data(), ser.buffer().data(), ser.size());
  RHODOS_RETURN_IF_ERROR(
      PutBlock(0, static_cast<std::uint32_t>(metadata_fragments_), region,
               StableMode::kOriginalAndStable, sync));
  // The newest image supersedes any queued for the mirror, so at most one
  // waits there: the one an asynchronous persist just queued, at the back.
  const auto older = stable_queue_.end() -
                     (sync == WriteSync::kAsynchronous ? 1 : 0);
  stable_queue_.erase(
      std::remove_if(stable_queue_.begin(), older,
                     [this](const PendingStableWrite& w) {
                       return w.first < metadata_fragments_;
                     }),
      older);
  return OkStatus();
}

void DiskServer::Crash() {
  cache_.InvalidateAll();
  stable_queue_.clear();
  main_.Crash();
  stable_.Crash();
}

Status DiskServer::Recover() {
  main_.Recover();
  stable_.Recover();
  cache_.InvalidateAll();
  stable_queue_.clear();

  std::vector<std::uint8_t> region(metadata_fragments_ * kFragmentSize);
  auto try_load = [&](ReadSource source) -> bool {
    std::span<std::uint8_t> out{region};
    Status st = source == ReadSource::kMain
                    ? main_.ReadFragments(0, static_cast<std::uint32_t>(
                                                 metadata_fragments_),
                                          out)
                    : stable_.ReadFragments(
                          0, static_cast<std::uint32_t>(metadata_fragments_),
                          out);
    if (!st.ok()) return false;
    Deserializer de{region};
    auto bm = Bitmap::Deserialize(de);
    if (!bm.has_value()) return false;  // torn or never persisted
    bitmap_ = std::move(*bm);
    return true;
  };

  if (!try_load(ReadSource::kMain) && !try_load(ReadSource::kStable)) {
    return {ErrorCode::kMediaError,
            "bitmap unrecoverable from both main and stable storage"};
  }
  free_space_.RebuildFromBitmap(bitmap_);
  return OkStatus();
}

void DiskServer::ResetStats() {
  main_.ResetStats();
  stable_.ResetStats();
  cache_.ResetStats();
  free_space_.ResetStats();
  vec_stats_ = VecIoStats{};
}

}  // namespace rhodos::disk
