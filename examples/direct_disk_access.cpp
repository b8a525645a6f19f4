// Protected direct disk access (paper §1).
//
// "Most systems do not provide to their users direct access to a disk
// service. ... the performance of such programs can improve significantly,
// if they are allowed to directly use the functions provided by the disk
// service, however, in a limited and a protected manner."
//
// This example builds a tiny append-only event log — the kind of
// application that "manages its own concurrency control and crash
// recovery" — directly on a disk lease, bypassing the file service
// entirely, and shows the protection boundary holding when it strays
// outside its extent.
//
// Build & run:  ./build/examples/direct_disk_access
#include <cstdio>
#include <cstring>
#include <string>

#include "core/facility.h"
#include "disk/disk_lease.h"

using namespace rhodos;

namespace {

// A fragment-grained append log with a tiny header in fragment 0.
class LeaseLog {
 public:
  explicit LeaseLog(disk::DiskLease lease) : lease_(std::move(lease)) {}

  bool Append(const std::string& event) {
    std::vector<std::uint8_t> frag(kFragmentSize, 0);
    const auto len = static_cast<std::uint32_t>(
        std::min(event.size(), kFragmentSize - 4));
    std::memcpy(frag.data(), &len, 4);
    std::memcpy(frag.data() + 4, event.data(), len);
    // One fragment per event, starting after the header fragment. The
    // application chooses its own layout — that is the point of direct
    // disk access.
    if (!lease_.Put(1 + count_, 1, frag).ok()) return false;
    ++count_;
    std::vector<std::uint8_t> header(kFragmentSize, 0);
    std::memcpy(header.data(), &count_, 4);
    return lease_
        .Put(0, 1, header, disk::StableMode::kOriginalAndStable)
        .ok();
  }

  std::string Read(std::uint32_t index) const {
    std::vector<std::uint8_t> frag(kFragmentSize);
    if (!lease_.Get(1 + index, 1, frag).ok()) return "<error>";
    std::uint32_t len;
    std::memcpy(&len, frag.data(), 4);
    return std::string(frag.begin() + 4, frag.begin() + 4 + len);
  }

  const disk::DiskLease& lease() const { return lease_; }

 private:
  disk::DiskLease lease_;
  std::uint32_t count_ = 0;
};

}  // namespace

int main() {
  core::DistributedFileFacility facility;
  disk::DiskLeaseManager leases(&facility.disks());

  // The facility grants this program 32 fragments (64 KiB) of raw disk.
  auto lease = leases.Grant(32);
  if (!lease.ok()) {
    std::fprintf(stderr, "lease refused: %s\n",
                 lease.error().ToString().c_str());
    return 1;
  }
  std::printf("leased %u fragments at disk %u, fragment %llu\n",
              lease->fragments(), lease->info().disk.value,
              static_cast<unsigned long long>(lease->info().first));

  LeaseLog log(std::move(*lease));
  log.Append("power-on self test passed");
  log.Append("network link up");
  log.Append("first client connected");
  for (std::uint32_t i = 0; i < 3; ++i) {
    std::printf("event[%u] = \"%s\"\n", i, log.Read(i).c_str());
  }

  // The protection boundary: reaching outside the extent is refused, so
  // the rest of the disk — other files, other leases — is untouchable.
  std::vector<std::uint8_t> evil(kFragmentSize, 0xFF);
  auto st = log.lease().Put(32, 1, evil);
  std::printf("write past the extent -> %s\n",
              st.ok() ? "ALLOWED (protection failed!)"
                      : st.error().ToString().c_str());
  auto st2 = log.lease().Put(31, 2, std::vector<std::uint8_t>(
                                        2 * kFragmentSize, 0xFF));
  std::printf("write straddling the boundary -> %s\n",
              st2.ok() ? "ALLOWED (protection failed!)"
                       : st2.error().ToString().c_str());

  // Revocation: the facility reclaims the space; the handle goes stale.
  if (auto revoked = leases.Revoke(log.lease().info().id); !revoked.ok()) {
    std::fprintf(stderr, "revoke failed: %s\n",
                 revoked.error().ToString().c_str());
    return 1;
  }
  auto st3 = log.lease().Get(0, 1, evil);
  std::printf("read after revocation -> %s\n",
              st3.ok() ? "ALLOWED (bug)" : st3.error().ToString().c_str());
  return 0;
}
