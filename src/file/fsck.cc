#include "file/fsck.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace rhodos::file {

namespace {

// A (disk, fragment) pair packed for hashing/ordering.
std::uint64_t Pack(DiskId disk, FragmentIndex f) {
  return (static_cast<std::uint64_t>(disk.value) << 40) | f;
}
DiskId PackDisk(std::uint64_t key) {
  return DiskId{static_cast<std::uint32_t>(key >> 40)};
}
FragmentIndex PackFragment(std::uint64_t key) {
  return key & ((1ULL << 40) - 1);
}

// Everything the walk learned about one data block.
struct BlockClaims {
  std::uint32_t claims = 0;    // claimants found, with multiplicity
  FileId first_file{};         // a claimant, for issue attribution
  FileService* owner = nullptr;  // first_file's owner: holds its share count
  FileId unflagged_file{};     // a claimant whose run lacks kRunShared
  bool has_unflagged = false;
};

// The service's share map, loaded if its journal exists on disk; null when
// the service never snapshotted.
const ShareMap* LoadShareMap(FileService& service) {
  bool have_map = service.snap_journal().loaded();
  if (!have_map) {
    if (auto present = service.snap_journal().Probe();
        present.ok() && *present) {
      have_map = service.snap_journal().Ensure().ok();
    }
  }
  return have_map ? &service.snap_journal().map() : nullptr;
}

}  // namespace

AuditReport AuditFiles(const FileResolver& owner_of,
                       std::span<const FileId> files,
                       std::span<const ReservedRegion> reserved,
                       bool exhaustive) {
  AuditReport report;
  // Owner of each claimed CONTROL fragment (index tables, indirect blocks):
  // control data is never shared, so any collision is a double allocation.
  std::unordered_map<std::uint64_t, FileId> owners;
  // Claim census of DATA blocks (ordered, so adjacent blocks coalesce into
  // run-granular issues below). Data blocks may legally be multiply claimed
  // — the share map is the judge.
  std::map<std::uint64_t, BlockClaims> data_claims;

  auto check_common = [&](FileService& service, FileId file, DiskId disk,
                          FragmentIndex f, const char* what) {
    ++report.fragments_claimed;
    for (const ReservedRegion& r : reserved) {
      if (disk == r.disk && f >= r.first && f < r.first + r.fragments) {
        report.issues.push_back(AuditIssue{
            AuditIssue::Kind::kReservedOverlap, file, disk, f,
            std::string(what) + " lies inside a reserved region"});
      }
    }
    auto server = service.disks()->Get(disk);
    if (server.ok() && !(*server)->IsFragmentAllocated(f)) {
      report.issues.push_back(AuditIssue{
          AuditIssue::Kind::kUnallocatedClaim, file, disk, f,
          std::string(what) + " not marked allocated in the bitmap"});
    }
  };

  auto claim_control = [&](FileService& service, FileId file, DiskId disk,
                           FragmentIndex first, std::uint64_t count,
                           const char* what) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const FragmentIndex f = first + i;
      check_common(service, file, disk, f, what);
      const std::uint64_t key = Pack(disk, f);
      if (auto it = owners.find(key); it != owners.end()) {
        report.issues.push_back(AuditIssue{
            AuditIssue::Kind::kDoubleAllocation, file, disk, f,
            std::string(what) + " also claimed by file " +
                std::to_string(it->second.value)});
      } else {
        owners.emplace(key, file);
      }
    }
  };

  auto claim_data = [&](FileService& service, FileId file,
                        const BlockDescriptor& run) {
    for (std::uint32_t b = 0; b < run.contiguous_count; ++b) {
      const FragmentIndex block_first =
          run.first_fragment + static_cast<FragmentIndex>(b) *
                                   kFragmentsPerBlock;
      for (std::uint32_t i = 0; i < kFragmentsPerBlock; ++i) {
        check_common(service, file, run.disk, block_first + i, "data block");
        // Control/data collisions are never legal, shared or not.
        if (auto it = owners.find(Pack(run.disk, block_first + i));
            it != owners.end()) {
          report.issues.push_back(AuditIssue{
              AuditIssue::Kind::kDoubleAllocation, file, run.disk,
              block_first + i,
              "data block also claimed as control data by file " +
                  std::to_string(it->second.value)});
        }
      }
      BlockClaims& c = data_claims[Pack(run.disk, block_first)];
      if (c.claims == 0) {
        c.first_file = file;
        c.owner = &service;
      }
      ++c.claims;
      if (!run.shared()) {
        c.has_unflagged = true;
        c.unflagged_file = file;
      }
    }
  };

  // The services that own the listed files, in first-seen order. The null
  // id's owner (the one service of an unsharded caller) is always among
  // them, so an exhaustive audit of no files still checks its share map.
  std::vector<FileService*> services = {&owner_of(FileId{})};
  for (FileId file : files) {
    ++report.files_checked;
    FileService& service = owner_of(file);
    if (std::find(services.begin(), services.end(), &service) ==
        services.end()) {
      services.push_back(&service);
    }
    auto attrs = service.GetAttributes(file);
    if (!attrs.ok()) {
      report.issues.push_back(
          AuditIssue{AuditIssue::Kind::kUnreadableTable, file,
                     FileDisk(file), FileFitFragment(file),
                     attrs.error().ToString()});
      continue;
    }
    // The index table fragment itself.
    claim_control(service, file, FileDisk(file), FileFitFragment(file), 1,
                  "index table");
    // Indirect blocks.
    auto indirect = service.IndirectBlockLocations(file);
    if (indirect.ok()) {
      for (const auto& ib : *indirect) {
        claim_control(service, file, ib.disk, ib.first_fragment,
                      kFragmentsPerBlock, "indirect block");
      }
    }
    // Data runs.
    auto runs = service.FileRuns(file);
    std::uint64_t mapped_blocks = 0;
    if (runs.ok()) {
      for (const auto& run : *runs) {
        claim_data(service, file, run);
        mapped_blocks += run.contiguous_count;
      }
    }
    // Size must be coverable by the mapped blocks.
    if (attrs->size > mapped_blocks * kBlockSize) {
      report.issues.push_back(AuditIssue{
          AuditIssue::Kind::kSizeMismatch, file, FileDisk(file), 0,
          "size " + std::to_string(attrs->size) + " exceeds " +
              std::to_string(mapped_blocks) + " mapped blocks"});
    }
  }

  // --- Reconcile the claim census against the stored share counts ----------
  // Each block is judged by the share map of its first claimant's owner
  // (images live on their origin's shard, so one shard holds every count of
  // a legally shared block). Without a snapshot journal on disk every
  // stored count reads as 1 and any multiple claim is a plain double
  // allocation.
  std::unordered_map<const FileService*, const ShareMap*> maps;
  for (FileService* service : services) {
    maps.emplace(service, LoadShareMap(*service));
  }

  // Run-granular reporting: adjacent blocks with the same defect and the
  // same owning file collapse into one issue naming the whole run.
  struct OpenIssue {
    AuditIssue::Kind kind;
    FileId file;
    std::uint64_t first_key = 0;
    std::uint64_t last_key = 0;
    std::uint32_t blocks = 0;
    std::uint32_t computed = 0;
    std::uint32_t stored = 0;
  };
  std::vector<OpenIssue> pending;
  auto add = [&pending](AuditIssue::Kind kind, FileId file,
                        std::uint64_t key, std::uint32_t computed,
                        std::uint32_t stored) {
    if (!pending.empty()) {
      OpenIssue& last = pending.back();
      if (last.kind == kind && last.file == file &&
          last.last_key + kFragmentsPerBlock == key &&
          last.computed == computed && last.stored == stored) {
        last.last_key = key;
        ++last.blocks;
        return;
      }
    }
    pending.push_back(OpenIssue{kind, file, key, key, 1, computed, stored});
  };

  for (const auto& [key, c] : data_claims) {
    const ShareMap* map = maps.at(c.owner);
    const std::uint32_t stored =
        map ? map->CountOf(PackDisk(key), PackFragment(key)) : 1;
    ++report.refcounts_checked;
    if (c.claims >= 2) ++report.shared_blocks;
    if (c.claims > stored) {
      add(AuditIssue::Kind::kRefcountLow, c.first_file, key, c.claims,
          stored);
    } else if (exhaustive && c.claims < stored) {
      add(AuditIssue::Kind::kRefcountHigh, c.first_file, key, c.claims,
          stored);
    }
    if (c.claims >= 2 && c.has_unflagged) {
      add(AuditIssue::Kind::kSharedFlagMissing, c.unflagged_file, key,
          c.claims, stored);
    }
  }
  for (FileService* service : services) {
    const ShareMap* map = exhaustive ? maps.at(service) : nullptr;
    if (map == nullptr) continue;
    // Stored counts for blocks no listed file claims at all: pure leaks.
    map->ForEach([&](DiskId disk, FragmentIndex frag, std::uint32_t stored) {
      const std::uint64_t key = Pack(disk, frag);
      if (data_claims.find(key) == data_claims.end()) {
        add(AuditIssue::Kind::kRefcountHigh, FileId{}, key, 0, stored);
      }
    });
  }
  for (const OpenIssue& p : pending) {
    const char* what =
        p.kind == AuditIssue::Kind::kRefcountLow
            ? "stored share count below the claimants found"
        : p.kind == AuditIssue::Kind::kRefcountHigh
            ? "stored share count exceeds the claimants found"
            : "shared block claimed by a run without the shared flag";
    report.issues.push_back(AuditIssue{
        p.kind, p.file, PackDisk(p.first_key), PackFragment(p.first_key),
        std::string(what) + ": block run at fragment " +
            std::to_string(PackFragment(p.first_key)) + " x" +
            std::to_string(p.blocks) + " blocks, " +
            std::to_string(p.computed) + " claimed vs " +
            std::to_string(p.stored) + " stored"});
  }
  return report;
}

}  // namespace rhodos::file
