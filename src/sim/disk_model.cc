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
      platter_(geometry.total_fragments * kFragmentSize, 0) {}

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
  std::memcpy(out.data(), platter_.data() + first * kFragmentSize,
              static_cast<std::size_t>(count) * kFragmentSize);
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
        std::memcpy(platter_.data() + first * kFragmentSize, in.data(),
                    static_cast<std::size_t>(persisted) * kFragmentSize);
        stats_.fragments_written += persisted;
      }
      crashed_ = true;
      writes_until_crash_ = -1;
      faults_.crash_after_writes = -1;
      return {ErrorCode::kDiskCrashed, "power lost during write"};
    }
    --writes_until_crash_;
  }

  std::memcpy(platter_.data() + first * kFragmentSize, in.data(),
              static_cast<std::size_t>(count) * kFragmentSize);
  stats_.fragments_written += count;
  return OkStatus();
}

std::span<const std::uint8_t> DiskModel::RawFragment(FragmentIndex f) const {
  return {platter_.data() + f * kFragmentSize, kFragmentSize};
}

void DiskModel::RawOverwrite(FragmentIndex f,
                             std::span<const std::uint8_t> data) {
  std::memcpy(platter_.data() + f * kFragmentSize, data.data(),
              std::min(data.size(), kFragmentSize));
}

}  // namespace rhodos::sim
