#include "disk/disk_lease.h"

namespace rhodos::disk {

bool DiskLease::valid() const {
  return manager_ != nullptr && manager_->IsLive(info_.id);
}

Status DiskLease::CheckRange(FragmentIndex rel_fragment,
                             std::uint32_t count) const {
  if (!valid()) {
    return {ErrorCode::kStaleHandle, "lease has been revoked"};
  }
  if (count == 0 || rel_fragment >= info_.fragments ||
      count > info_.fragments - rel_fragment) {
    // The protection the paper asks for: a leaseholder can never reach
    // outside its extent.
    return {ErrorCode::kPermissionDenied,
            "access outside the leased extent"};
  }
  return OkStatus();
}

Status DiskLease::Get(FragmentIndex rel_fragment, std::uint32_t count,
                      std::span<std::uint8_t> out, ReadSource source) const {
  RHODOS_RETURN_IF_ERROR(CheckRange(rel_fragment, count));
  RHODOS_ASSIGN_OR_RETURN(DiskServer * server,
                          manager_->disks()->Get(info_.disk));
  return server->GetBlock(info_.first + rel_fragment, count, out, source);
}

Status DiskLease::Put(FragmentIndex rel_fragment, std::uint32_t count,
                      std::span<const std::uint8_t> in, StableMode stable,
                      WriteSync sync) const {
  RHODOS_RETURN_IF_ERROR(CheckRange(rel_fragment, count));
  RHODOS_ASSIGN_OR_RETURN(DiskServer * server,
                          manager_->disks()->Get(info_.disk));
  return server->PutBlock(info_.first + rel_fragment, count, in, stable,
                          sync);
}

Result<DiskLease> DiskLeaseManager::Grant(std::uint32_t fragments) {
  if (fragments == 0) {
    return Error{ErrorCode::kInvalidArgument, "empty lease"};
  }
  RHODOS_ASSIGN_OR_RETURN(auto placement, disks_->Allocate(fragments));
  LeaseInfo info;
  info.id = LeaseId{next_lease_++};
  info.disk = placement.disk;
  info.first = placement.first;
  info.fragments = fragments;
  leases_.emplace(info.id, info);
  return DiskLease{this, info};
}

Status DiskLeaseManager::Revoke(LeaseId id) {
  auto it = leases_.find(id);
  if (it == leases_.end()) {
    return {ErrorCode::kNotFound, "no such lease"};
  }
  RHODOS_RETURN_IF_ERROR(disks_->Free(it->second.disk, it->second.first,
                                      it->second.fragments));
  leases_.erase(it);
  return OkStatus();
}

}  // namespace rhodos::disk
