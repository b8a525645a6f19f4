// The file index table (paper §5).
//
// "The sequence of block descriptors is stored in a separate data structure
// called a file index table. ... the file index table stores along with
// each block descriptor a two byte count to indicate the number of
// contiguous successive disk blocks", plus the file-specific attributes.
//
// In-memory the table is a sequence of *runs*: each BlockDescriptor covers
// `contiguous_count` physically contiguous blocks. On disk:
//
//   * the table itself lives in ONE 2 KiB fragment (control data is stored
//     in fragments — §4), holding the attributes, up to kDirectRuns run
//     descriptors (the direct blocks), and up to kIndirectRefs references
//     to indirect blocks;
//   * each indirect block is one 8 KiB data block holding up to
//     kRunsPerIndirectBlock further run descriptors (the indirect data
//     blocks are reached through these).
//
// With 64 direct runs of at least one 8 KiB block each, at least 0.5 MiB of
// file data is reachable directly from the table — the paper's headline
// "for files up to half a megabyte, the maximum number of disk references
// is two". Since every run may cover up to 65535 blocks and there can be
// tens of thousands of indexed runs, file size is unlimited for all
// practical purposes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/serializer.h"
#include "common/types.h"
#include "file/file_types.h"

namespace rhodos::file {

inline constexpr std::size_t kDirectRuns = 64;
// 56 indirect references keep the fragment-resident part within one 2 KiB
// fragment: 4 (magic) + 51 (attributes, incl. image lineage) + 8 (counts)
// + 64*16 (direct runs) + 4 (count) + 56*16 (indirect refs) = 1987 bytes.
inline constexpr std::size_t kIndirectRefs = 56;
// Serialized run: disk u32 + first_fragment u64 + count u16 + flags u16
// = 16 bytes.
inline constexpr std::size_t kRunBytes = 16;
// Each indirect block starts with a u32 run count, then the runs.
inline constexpr std::size_t kRunsPerIndirectBlock =
    (kBlockSize - 4) / kRunBytes;

// Where a logical block of the file physically lives.
struct BlockLocation {
  DiskId disk;
  FragmentIndex first_fragment;   // of the logical block
  // Number of logical blocks, starting with this one, that are physically
  // contiguous on `disk` (including this one). The read path turns this
  // directly into a single multi-block get_block.
  std::uint32_t contiguous_blocks;
  // Flags of the run the block lives in (kRunShared => COW before writing).
  std::uint16_t flags = 0;
};

class FileIndexTable {
 public:
  FileIndexTable() = default;

  FileAttributes& attributes() { return attributes_; }
  const FileAttributes& attributes() const { return attributes_; }

  // Number of logical blocks the table maps.
  std::uint64_t BlockCount() const { return total_blocks_; }

  // Number of runs (block descriptors).
  std::size_t RunCount() const { return runs_.size(); }
  const std::vector<BlockDescriptor>& runs() const { return runs_; }

  // Maps a logical block index to its physical location.
  Result<BlockLocation> Locate(std::uint64_t block_index) const;

  // Appends `count` blocks at (disk, first_fragment). Coalesces with the
  // previous run when physically adjacent on the same disk — this is how
  // the two-byte contiguity count grows. Runs with differing flags are
  // never coalesced (a shared run must keep its boundary).
  Status AppendRun(DiskId disk, FragmentIndex first_fragment,
                   std::uint32_t count, std::uint16_t flags = 0);

  // Appends a run verbatim (flags included). Used when duplicating another
  // table's run list for a snapshot or clone image.
  Status AppendDescriptor(const BlockDescriptor& run) {
    return AppendRun(run.disk, run.first_fragment, run.contiguous_count,
                     run.flags);
  }

  // Replaces the single logical block `block_index` so it now lives at
  // (disk, fragment). This is the shadow-page commit primitive; it may
  // split a run into up to three (the paper's observation that shadow
  // paging "destroys the contiguity of data blocks" falls out of this).
  // The side pieces inherit the donor run's flags; the replacement block
  // itself carries `flags` (freshly allocated shadow blocks are exclusive).
  Status ReplaceBlock(std::uint64_t block_index, DiskId disk,
                      FragmentIndex fragment, std::uint16_t flags = 0);

  // Rebinds logical blocks [first_block, first_block + count) — which must
  // lie within ONE existing run — to the physically contiguous range at
  // (disk, fragment) with the given flags. The COW-split primitive: the
  // donor side pieces keep their flags, the new piece is typically
  // exclusive (flags = 0).
  Status ReplaceRange(std::uint64_t first_block, std::uint32_t count,
                      DiskId disk, FragmentIndex fragment,
                      std::uint16_t flags = 0);

  // Marks every run shared. Used when capturing a snapshot/clone: both the
  // source table and the image table flip all their runs to kRunShared.
  void SetAllRunsShared();

  // Clears kRunShared on logical blocks [first_block, first_block + count),
  // splitting runs at the range boundaries when needed. Called when a COW
  // probe finds the refcount already back at one (lazy flag clearing).
  Status ClearSharedInRange(std::uint64_t first_block, std::uint32_t count);

  // True if any run still carries kRunShared. The txn service forces the
  // shadow-page technique for such files.
  bool HasSharedRuns() const {
    for (const auto& r : runs_) {
      if (r.shared()) return true;
    }
    return false;
  }

  // Drops every logical block at index >= new_block_count, returning the
  // freed physical runs so the caller can release them to the disk service.
  std::vector<BlockDescriptor> TruncateBlocks(std::uint64_t new_block_count);

  // True iff all blocks of the file form one physically contiguous run on a
  // single disk. The transaction service's WAL-vs-shadow choice tests this.
  bool FullyContiguous() const { return runs_.size() <= 1; }

  // Fraction of adjacent logical block pairs that are physically adjacent
  // (1.0 = fully contiguous). The contiguity metric reported by benches.
  double ContiguityIndex() const;

  // --- On-disk form -------------------------------------------------------

  // True while the table (attributes + direct runs) fits in the one
  // fragment without indirect blocks.
  bool NeedsIndirectBlocks() const { return runs_.size() > kDirectRuns; }

  // Serializes the fragment-resident part: attributes, the first
  // kDirectRuns runs, and the locations of the indirect blocks (which the
  // caller must have provisioned when NeedsIndirectBlocks()). Fits in one
  // fragment; asserts on overflow.
  void SerializeFragment(Serializer& out,
                         const std::vector<BlockDescriptor>& indirect_blocks)
      const;

  // Serializes indirect block `i` (runs [kDirectRuns + i*kRunsPerIndirectBlock
  // ...]) into exactly kBlockSize bytes.
  std::vector<std::uint8_t> SerializeIndirectBlock(std::size_t i) const;

  // Number of indirect blocks the current run list requires.
  std::size_t IndirectBlockCount() const;

  Status ParseIndirectBlock(std::span<const std::uint8_t> block);

 private:
  friend Result<struct FitParseResult> ParseFitFragment(
      std::span<const std::uint8_t> fragment);

  void RecomputeTotals();

  FileAttributes attributes_;
  std::vector<BlockDescriptor> runs_;
  // Prefix sums: cumulative_[i] = number of logical blocks before run i.
  std::vector<std::uint64_t> cumulative_;
  std::uint64_t total_blocks_ = 0;
};

// Result of parsing the fragment-resident part of a table: the table (with
// its direct runs) plus the locations of the indirect blocks the caller must
// fetch and feed to ParseIndirectBlock.
struct FitParseResult {
  FileIndexTable table;
  std::vector<BlockDescriptor> indirect_blocks;
};

// Refuses what the writer never produces: a header whose direct-run and
// indirect-block counts disagree with its total run count, and a run of
// zero blocks (ParseIndirectBlock refuses those too). The total is not
// compared with the runs the indirect blocks hold: those are rewritten in
// place before their fragment, so a crash between the two puts leaves an
// old fragment beside new indirect runs.
Result<FitParseResult> ParseFitFragment(
    std::span<const std::uint8_t> fragment);

}  // namespace rhodos::file
