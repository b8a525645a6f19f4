// Registry of all disk servers in the distributed system.
//
// "There is one disk server corresponding to each disk in the RHODOS
// system" and "there is practically no limitation on the number of disks
// connected" (§4, §7). A file may be partitioned over several disks, so the
// file service allocates through this registry, which spreads data with a
// simple rotating / most-free placement policy.
#pragma once

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/sim_clock.h"
#include "common/types.h"
#include "disk/disk_server.h"

namespace rhodos::disk {

enum class PlacementPolicy : std::uint8_t {
  kRoundRobin,  // rotate across disks (striping)
  kMostFree,    // pick the disk with the most free fragments
  kFirstFit,    // always try disk 0 first (single-disk behaviour)
};

class DiskRegistry {
 public:
  explicit DiskRegistry(PlacementPolicy policy = PlacementPolicy::kRoundRobin)
      : policy_(policy) {}

  // Creates and registers a new disk server; returns its id.
  DiskId AddDisk(DiskServerConfig config, SimClock* clock);

  std::size_t DiskCount() const { return disks_.size(); }

  Result<DiskServer*> Get(DiskId id);
  const std::vector<std::unique_ptr<DiskServer>>& disks() const {
    return disks_;
  }

  PlacementPolicy policy() const { return policy_; }

  // Allocates `count` contiguous fragments on some disk chosen by the
  // placement policy; returns the disk and first fragment.
  struct Placement {
    DiskId disk;
    FragmentIndex first;
  };
  Result<Placement> Allocate(std::uint32_t count);

  // As Allocate, but skips `avoid` (used to place a stripe's next extent on
  // a different spindle than the previous one).
  Result<Placement> AllocateAvoiding(std::uint32_t count, DiskId avoid);

  Status Free(DiskId disk, FragmentIndex first, std::uint32_t count);

  std::uint64_t TotalFreeFragments() const;

  void CrashAll();
  Status RecoverAll();
  void ResetStats();

 private:
  Result<Placement> AllocateFrom(std::size_t start_index, std::uint32_t count,
                                 const DiskServer* avoid);

  PlacementPolicy policy_;
  std::vector<std::unique_ptr<DiskServer>> disks_;
  std::size_t next_disk_{0};  // round-robin cursor
};

}  // namespace rhodos::disk
