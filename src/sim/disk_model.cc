#include "sim/disk_model.h"

#include <algorithm>
#include <cstring>

#include "sim/parallel.h"

namespace rhodos::sim {

DiskModel::DiskModel(DiskGeometry geometry, SimClock* clock,
                     std::uint64_t fault_seed)
    : geometry_(geometry),
      clock_(clock),
      fault_rng_(fault_seed),
      chunks_((geometry.total_fragments * kFragmentSize + kChunkBytes - 1) /
              kChunkBytes) {}

void DiskModel::CopyOut(std::uint64_t at, std::span<std::uint8_t> out) const {
  while (!out.empty()) {
    const std::size_t within = at % kChunkBytes;
    const std::size_t n = std::min(out.size(), kChunkBytes - within);
    if (const Chunk* chunk = chunks_[at / kChunkBytes].get()) {
      std::memcpy(out.data(), chunk->data() + within, n);
    } else {
      std::memset(out.data(), 0, n);
    }
    at += n;
    out = out.subspan(n);
  }
}

void DiskModel::CopyIn(std::uint64_t at, std::span<const std::uint8_t> in) {
  while (!in.empty()) {
    const std::size_t within = at % kChunkBytes;
    const std::size_t n = std::min(in.size(), kChunkBytes - within);
    std::unique_ptr<Chunk>& chunk = chunks_[at / kChunkBytes];
    if (chunk == nullptr) chunk = std::make_unique<Chunk>();  // zero-filled
    std::memcpy(chunk->data() + within, in.data(), n);
    at += n;
    in = in.subspan(n);
  }
}

Status DiskModel::ValidateRange(FragmentIndex first,
                                std::uint32_t count) const {
  if (crashed_) {
    return {ErrorCode::kDiskCrashed, "disk is down"};
  }
  if (count == 0) {
    return {ErrorCode::kInvalidArgument, "zero-length disk reference"};
  }
  if (first >= geometry_.total_fragments ||
      count > geometry_.total_fragments - first) {
    return {ErrorCode::kBadAddress,
            "fragment range [" + std::to_string(first) + ", +" +
                std::to_string(count) + ") outside disk"};
  }
  return OkStatus();
}

void DiskModel::ChargeReference(FragmentIndex first, std::uint32_t count,
                                bool charge_seek) {
  NoteDeviceReference(this);
  const std::uint64_t target_track = geometry_.TrackOf(first);
  SimTime cost = 0;
  if (charge_seek) {
    const std::uint64_t distance = target_track > head_track_
                                       ? target_track - head_track_
                                       : head_track_ - target_track;
    stats_.tracks_seeked += distance;
    cost += geometry_.seek_base +
            geometry_.seek_per_track * static_cast<SimTime>(distance);
    cost += geometry_.rotational_latency;
  }
  cost += geometry_.transfer_per_fragment * static_cast<SimTime>(count);
  head_track_ = geometry_.TrackOf(first + count - 1);
  stats_.time_charged += cost;
  if (clock_ != nullptr) clock_->Advance(cost);
}

Status DiskModel::ReadFragments(FragmentIndex first, std::uint32_t count,
                                std::span<std::uint8_t> out,
                                bool charge_seek) {
  RHODOS_RETURN_IF_ERROR(ValidateRange(first, count));
  if (out.size() < static_cast<std::size_t>(count) * kFragmentSize) {
    return {ErrorCode::kInvalidArgument, "read buffer too small"};
  }
  ChargeReference(first, count, charge_seek);
  if (charge_seek) stats_.read_references += 1;
  stats_.fragments_read += count;
  if (faults_.media_error_rate > 0.0 &&
      fault_rng_.Chance(faults_.media_error_rate)) {
    return {ErrorCode::kMediaError,
            "unrecoverable read error at fragment " + std::to_string(first)};
  }
  CopyOut(first * kFragmentSize,
          out.first(static_cast<std::size_t>(count) * kFragmentSize));
  return OkStatus();
}

Status DiskModel::WriteFragments(FragmentIndex first, std::uint32_t count,
                                 std::span<const std::uint8_t> in,
                                 bool charge_seek) {
  RHODOS_RETURN_IF_ERROR(ValidateRange(first, count));
  if (in.size() < static_cast<std::size_t>(count) * kFragmentSize) {
    return {ErrorCode::kInvalidArgument, "write buffer too small"};
  }
  ChargeReference(first, count, charge_seek);
  if (charge_seek) stats_.write_references += 1;

  if (faults_.crash_after_writes >= 0) {
    if (writes_until_crash_ < 0) {
      writes_until_crash_ = faults_.crash_after_writes;
    }
    if (writes_until_crash_ == 0) {
      // Torn write: a random prefix of the fragments reaches the platter,
      // then power is lost.
      const auto persisted =
          static_cast<std::uint32_t>(fault_rng_.Below(count));
      if (persisted > 0) {
        CopyIn(first * kFragmentSize,
               in.first(static_cast<std::size_t>(persisted) * kFragmentSize));
        stats_.fragments_written += persisted;
      }
      crashed_ = true;
      writes_until_crash_ = -1;
      faults_.crash_after_writes = -1;
      return {ErrorCode::kDiskCrashed, "power lost during write"};
    }
    --writes_until_crash_;
  }

  CopyIn(first * kFragmentSize,
         in.first(static_cast<std::size_t>(count) * kFragmentSize));
  stats_.fragments_written += count;
  return OkStatus();
}

std::span<const std::uint8_t> DiskModel::RawFragment(FragmentIndex f) const {
  static constexpr std::array<std::uint8_t, kFragmentSize> kZeroFragment{};
  const std::uint64_t at = f * kFragmentSize;
  const Chunk* chunk = chunks_[at / kChunkBytes].get();
  if (chunk == nullptr) return kZeroFragment;
  return {chunk->data() + at % kChunkBytes, kFragmentSize};
}

std::uint64_t DiskModel::ResidentBytes() const {
  return kChunkBytes * static_cast<std::uint64_t>(std::count_if(
                           chunks_.begin(), chunks_.end(),
                           [](const auto& chunk) { return chunk != nullptr; }));
}

void DiskModel::RawOverwrite(FragmentIndex f,
                             std::span<const std::uint8_t> data) {
  CopyIn(f * kFragmentSize, data.first(std::min(data.size(), kFragmentSize)));
}

}  // namespace rhodos::sim
