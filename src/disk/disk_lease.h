// Protected direct disk access (paper §1).
//
// "Most systems do not provide to their users direct access to a disk
// service. ... the performance of such programs can improve significantly,
// if they are allowed to directly use the functions provided by the disk
// service, however, in a limited and a protected manner."
//
// A DiskLease is that limited, protected window: the facility allocates a
// fragment extent and grants the client a handle whose get/put operations
// are bounds-checked against the extent — the client can manage its own
// on-disk layout (its own database, log, whatever) without being able to
// touch anything else on the disk. Leases are revocable; revocation frees
// the extent and invalidates the handle.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

#include "common/result.h"
#include "common/types.h"
#include "disk/disk_registry.h"
#include "disk/disk_server.h"

namespace rhodos::disk {

struct LeaseTag {};
using LeaseId = StrongId<LeaseTag, std::uint64_t>;

struct LeaseInfo {
  LeaseId id{};
  DiskId disk{};
  FragmentIndex first = 0;
  std::uint32_t fragments = 0;
};

class DiskLeaseManager;

// Client-side handle. All addresses are lease-relative (fragment 0 is the
// first fragment of the extent); the handle clamps every operation to the
// extent and fails with kPermissionDenied on any attempt to reach past it.
class DiskLease {
 public:
  DiskLease() = default;

  bool valid() const;
  const LeaseInfo& info() const { return info_; }
  std::uint32_t fragments() const { return info_.fragments; }

  // Direct disk-service I/O within the extent. `rel_fragment` is relative
  // to the start of the lease.
  Status Get(FragmentIndex rel_fragment, std::uint32_t count,
             std::span<std::uint8_t> out,
             ReadSource source = ReadSource::kMain) const;
  Status Put(FragmentIndex rel_fragment, std::uint32_t count,
             std::span<const std::uint8_t> in,
             StableMode stable = StableMode::kNone,
             WriteSync sync = WriteSync::kSynchronous) const;

 private:
  friend class DiskLeaseManager;
  DiskLease(DiskLeaseManager* manager, LeaseInfo info)
      : manager_(manager), info_(info) {}

  Status CheckRange(FragmentIndex rel_fragment, std::uint32_t count) const;

  DiskLeaseManager* manager_ = nullptr;
  LeaseInfo info_{};
};

class DiskLeaseManager {
 public:
  explicit DiskLeaseManager(DiskRegistry* disks) : disks_(disks) {}

  DiskLeaseManager(const DiskLeaseManager&) = delete;
  DiskLeaseManager& operator=(const DiskLeaseManager&) = delete;

  // Grants a lease over a freshly allocated extent of `fragments`
  // contiguous fragments (placement chosen by the registry's policy).
  Result<DiskLease> Grant(std::uint32_t fragments);

  // Revokes the lease and frees its extent. Outstanding handles fail all
  // further operations.
  Status Revoke(LeaseId id);

  // True while the lease is live (handles check this on every call).
  bool IsLive(LeaseId id) const { return leases_.count(id) != 0; }

  DiskRegistry* disks() { return disks_; }

 private:
  DiskRegistry* disks_;
  std::unordered_map<LeaseId, LeaseInfo> leases_;
  std::uint64_t next_lease_{1};
};

}  // namespace rhodos::disk
