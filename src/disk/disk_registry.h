// Registry of all disk servers in the distributed system.
//
// "There is one disk server corresponding to each disk in the RHODOS
// system" and "there is practically no limitation on the number of disks
// connected" (§4, §7). A file may be partitioned over several disks, so the
// file service allocates through this registry, which spreads data by
// rotating across the disks (striping).
#pragma once

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/sim_clock.h"
#include "common/types.h"
#include "disk/disk_server.h"

namespace rhodos::disk {

class DiskRegistry {
 public:
  // Creates and registers a new disk server; returns its id.
  DiskId AddDisk(DiskServerConfig config, SimClock* clock);

  std::size_t DiskCount() const { return disks_.size(); }

  Result<DiskServer*> Get(DiskId id);
  const std::vector<std::unique_ptr<DiskServer>>& disks() const {
    return disks_;
  }

  // Allocates `count` contiguous fragments on the first disk, from the
  // round-robin cursor on, that has room; returns the disk and first
  // fragment and moves the cursor past that disk.
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
  std::vector<std::unique_ptr<DiskServer>> disks_;
  std::size_t next_disk_{0};  // round-robin cursor
};

}  // namespace rhodos::disk
