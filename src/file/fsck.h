// Consistency audit of the file facility ("fsck").
//
// The paper leans on several structural invariants — every block descriptor
// points at allocated space, no two files share fragments unless a snapshot
// or clone says so, the index table and its indirect blocks are parseable
// from disk. After crash recovery (or any time), the audit walks a set of
// files and verifies all of them against the disk servers' bitmaps and the
// snapshot share map, reporting exactly what a downstream administrator
// would want to know before trusting the volume.
//
// Sharing changes what "double allocation" means: a data block claimed by k
// files is legal exactly when the stored share count is k. The audit
// recomputes the claim count per block with multiplicity and compares it to
// the stored count:
//
//   * computed > stored  -> kRefcountLow  (a future release double-frees)
//   * computed < stored  -> kRefcountHigh (blocks leak; only reportable in
//     exhaustive mode, when the walk is known to cover every file)
//   * computed >= 2 with an unflagged claiming run -> kSharedFlagMissing
//     (a write would skip copy-on-write and corrupt the other holders)
//
// The reverse flag direction — kRunShared set while the count is 1 — is
// NOT an issue: flags are conservative and cleared lazily by the last
// owner's next write.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "file/file_service.h"

namespace rhodos::file {

struct AuditIssue {
  enum class Kind : std::uint8_t {
    kUnreadableTable,   // index table could not be loaded/parsed
    kDoubleAllocation,  // two files claim the same fragment (no sharing)
    kUnallocatedClaim,  // a file claims a fragment the bitmap says is free
    kSizeMismatch,      // attribute size exceeds mapped blocks
    kReservedOverlap,   // a file claims fragments inside a reserved region
    kRefcountLow,       // more claimants than the stored share count
    kRefcountHigh,      // stored share count exceeds the claimants found
    kSharedFlagMissing, // shared block whose claiming run lacks kRunShared
  };
  Kind kind;
  FileId file{};
  DiskId disk{};
  FragmentIndex fragment = 0;
  std::string detail;
};

// A fragment range no file may claim — e.g. the transaction service's
// intention-log region (TransactionService::log_region()) or the snapshot
// journal's tail region (SnapJournal::Region*()). The caller passes these
// because fsck sits below the layers that own them.
struct ReservedRegion {
  DiskId disk{};
  FragmentIndex first = 0;
  std::uint64_t fragments = 0;
};

struct AuditReport {
  std::uint64_t files_checked = 0;
  std::uint64_t fragments_claimed = 0;  // with multiplicity
  std::uint64_t shared_blocks = 0;      // blocks claimed by 2+ files
  std::uint64_t refcounts_checked = 0;  // blocks compared against the map
  std::vector<AuditIssue> issues;

  bool clean() const { return issues.empty(); }
  std::uint64_t CountOf(AuditIssue::Kind kind) const {
    std::uint64_t n = 0;
    for (const auto& i : issues) n += i.kind == kind ? 1 : 0;
    return n;
  }
};

// Audits `files` against the disks and share maps. Each file's table and
// share counts are read through `owner_of(file)`, the service that serves
// it; the claim census spans every listed file, so two files claiming one
// fragment are caught whichever services own them. Read-only: never
// repairs. Any fragment a file claims inside one of `reserved` is reported
// as kReservedOverlap. With `exhaustive` set the caller asserts that
// `files` lists EVERY live file, which additionally arms the leak check
// (kRefcountHigh) — including stored counts for blocks no listed file
// claims at all.
AuditReport AuditFiles(const FileResolver& owner_of,
                       std::span<const FileId> files,
                       std::span<const ReservedRegion> reserved = {},
                       bool exhaustive = false);

// The audit of files that one service serves.
inline AuditReport AuditFiles(FileService& service,
                              std::span<const FileId> files,
                              std::span<const ReservedRegion> reserved = {},
                              bool exhaustive = false) {
  return AuditFiles([&service](FileId) -> FileService& { return service; },
                    files, reserved, exhaustive);
}

}  // namespace rhodos::file
