#include "disk/disk_registry.h"

#include <algorithm>

namespace rhodos::disk {

DiskId DiskRegistry::AddDisk(DiskServerConfig config, SimClock* clock) {
  const DiskId id{static_cast<std::uint32_t>(disks_.size())};
  disks_.push_back(std::make_unique<DiskServer>(id, config, clock));
  return id;
}

Result<DiskServer*> DiskRegistry::Get(DiskId id) {
  if (id.value >= disks_.size()) {
    return Error{ErrorCode::kNotFound,
                 "no disk " + std::to_string(id.value)};
  }
  return disks_[id.value].get();
}

Result<DiskRegistry::Placement> DiskRegistry::Allocate(std::uint32_t count) {
  return AllocateAvoiding(count, DiskId{~std::uint32_t{0}});
}

Result<DiskRegistry::Placement> DiskRegistry::AllocateAvoiding(
    std::uint32_t count, DiskId avoid_id) {
  if (disks_.empty()) {
    return Error{ErrorCode::kUnavailable, "no disks registered"};
  }
  const DiskServer* avoid =
      avoid_id.value < disks_.size() ? disks_[avoid_id.value].get() : nullptr;
  for (std::size_t i = 0; i < disks_.size(); ++i) {
    DiskServer& d = *disks_[(next_disk_ + i) % disks_.size()];
    if (&d == avoid && disks_.size() > 1) continue;
    auto frag = d.AllocateFragments(count);
    if (frag.ok()) {
      next_disk_ = (d.id().value + 1) % disks_.size();
      return Placement{d.id(), *frag};
    }
  }
  return Error{ErrorCode::kNoSpace,
               "no disk has " + std::to_string(count) +
                   " contiguous free fragments"};
}

Status DiskRegistry::Free(DiskId disk, FragmentIndex first,
                          std::uint32_t count) {
  RHODOS_ASSIGN_OR_RETURN(DiskServer * d, Get(disk));
  return d->FreeFragments(first, count);
}

std::uint64_t DiskRegistry::TotalFreeFragments() const {
  std::uint64_t total = 0;
  for (const auto& d : disks_) total += d->FreeFragmentCount();
  return total;
}

void DiskRegistry::CrashAll() {
  for (auto& d : disks_) d->Crash();
}

Status DiskRegistry::RecoverAll() {
  for (auto& d : disks_) {
    RHODOS_RETURN_IF_ERROR(d->Recover());
  }
  return OkStatus();
}

void DiskRegistry::ResetStats() {
  for (auto& d : disks_) d->ResetStats();
}

}  // namespace rhodos::disk
