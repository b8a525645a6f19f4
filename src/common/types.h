// Fundamental types and constants of the RHODOS distributed file facility.
//
// The paper (§4) fixes two logical units of storage:
//   * a fragment of 2 KiB, used for structural (control) information, and
//   * a block of 8 KiB (= 4 contiguous fragments), used for file data.
// All on-disk addressing in this library is in fragments; a block is a
// 4-fragment-aligned run of fragments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace rhodos {

// ---------------------------------------------------------------------------
// Storage units (paper §4).
// ---------------------------------------------------------------------------

inline constexpr std::size_t kFragmentSize = 2048;           // bytes
inline constexpr std::size_t kFragmentsPerBlock = 4;         // 4 * 2K = 8K
inline constexpr std::size_t kBlockSize = kFragmentSize * kFragmentsPerBlock;

// Blocks that cover `bytes`, rounded up without adding: a byte count
// within a block of 2^64 must not wrap to a handful of blocks.
constexpr std::uint64_t BlocksCovering(std::uint64_t bytes) {
  return bytes / kBlockSize + (bytes % kBlockSize != 0 ? 1 : 0);
}

// A byte range [offset, offset + length) whose end does not wrap past 2^64:
// no reply can be sized, nor block range computed, from one that does.
constexpr bool RangeFits(std::uint64_t offset, std::uint64_t length) {
  return length <= ~std::uint64_t{0} - offset;
}

// The free-space run array is 64x64 (paper §4): row r tracks runs of exactly
// r+1 contiguous free fragments, each row holding up to 64 run references.
inline constexpr std::size_t kFreeSpaceRows = 64;
inline constexpr std::size_t kFreeSpaceCols = 64;

// Object descriptors returned by the device agent are below this bound;
// descriptors returned by the file/transaction agents are above it (§3).
inline constexpr std::int64_t kDeviceDescriptorBound = 100'000;

// Default environment descriptor values (§3).
inline constexpr std::int64_t kStdinDescriptor = 0;
inline constexpr std::int64_t kStdoutDescriptor = 1;
inline constexpr std::int64_t kStderrDescriptor = 2;
// Redirected standard streams (§3).
inline constexpr std::int64_t kRedirectedStdout = 100'001;
inline constexpr std::int64_t kRedirectedStdin = 100'002;
inline constexpr std::int64_t kRedirectedStderr = 100'003;

// ---------------------------------------------------------------------------
// Strongly typed identifiers.
// ---------------------------------------------------------------------------

// A small CRTP-free strong-typedef: distinct tag types prevent mixing, say,
// a fragment index with a block index at compile time.
template <typename Tag, typename Rep = std::uint64_t>
struct StrongId {
  using rep_type = Rep;

  Rep value{0};

  constexpr StrongId() = default;
  constexpr explicit StrongId(Rep v) : value(v) {}

  friend constexpr bool operator==(StrongId a, StrongId b) {
    return a.value == b.value;
  }
  friend constexpr bool operator!=(StrongId a, StrongId b) {
    return a.value != b.value;
  }
  friend constexpr bool operator<(StrongId a, StrongId b) {
    return a.value < b.value;
  }
  friend constexpr bool operator<=(StrongId a, StrongId b) {
    return a.value <= b.value;
  }
  friend constexpr bool operator>(StrongId a, StrongId b) {
    return a.value > b.value;
  }
  friend constexpr bool operator>=(StrongId a, StrongId b) {
    return a.value >= b.value;
  }
};

struct DiskIdTag {};
struct FileIdTag {};
struct TxnIdTag {};
struct ProcessIdTag {};
struct MachineIdTag {};

// Identifies one disk (and hence one disk server — the paper keeps them 1:1).
using DiskId = StrongId<DiskIdTag, std::uint32_t>;
// The system name of a file: unique across the facility.
using FileId = StrongId<FileIdTag, std::uint64_t>;
// A transaction descriptor.
using TxnId = StrongId<TxnIdTag, std::uint64_t>;
// A RHODOS process identifier.
using ProcessId = StrongId<ProcessIdTag, std::uint64_t>;
// A machine (workstation or server) in the distributed system.
using MachineId = StrongId<MachineIdTag, std::uint32_t>;

// Fragment and block indices are plain integers used in tight loops and
// arithmetic; they address units *within one disk*.
using FragmentIndex = std::uint64_t;  // index of a 2 KiB fragment on a disk
using BlockIndex = std::uint64_t;     // index of an 8 KiB block on a disk

inline constexpr FragmentIndex kInvalidFragment = ~FragmentIndex{0};
inline constexpr BlockIndex kInvalidBlock = ~BlockIndex{0};

constexpr FragmentIndex FirstFragmentOfBlock(BlockIndex b) {
  return b * kFragmentsPerBlock;
}
constexpr BlockIndex BlockOfFragment(FragmentIndex f) {
  return f / kFragmentsPerBlock;
}
constexpr bool IsBlockAligned(FragmentIndex f) {
  return f % kFragmentsPerBlock == 0;
}

// A block descriptor locates a run of file data: the disk it lives on, the
// first fragment of the run, and — the paper's signature optimization — a
// two-byte count of how many successive *blocks* are contiguous, so that the
// whole run can be moved with a single disk reference (§5).
// Per-run flag bits (serialized in the descriptor's pad bytes). kRunShared
// marks a run whose blocks MAY be referenced by more than one file index
// table (snapshots/clones): writers must copy-on-write split it, and
// releases must consult the share refcounts instead of freeing outright.
// The flag is conservative — it can remain set after the refcount has
// dropped back to one (the last owner clears it lazily) — but it must never
// be clear while the refcount is above one.
inline constexpr std::uint16_t kRunShared = 0x0001;

struct BlockDescriptor {
  DiskId disk{};
  FragmentIndex first_fragment{kInvalidFragment};
  std::uint16_t contiguous_count{0};  // number of contiguous blocks, >= 1
  std::uint16_t flags{0};             // kRunShared et al.

  constexpr bool valid() const { return first_fragment != kInvalidFragment; }
  constexpr bool shared() const { return (flags & kRunShared) != 0; }

  friend constexpr bool operator==(const BlockDescriptor&,
                                   const BlockDescriptor&) = default;
};

// Object descriptor handed to clients by the agents (§3).
using ObjectDescriptor = std::int64_t;

constexpr bool IsDeviceDescriptor(ObjectDescriptor d) {
  return d >= 0 && d < kDeviceDescriptorBound;
}
constexpr bool IsFileDescriptor(ObjectDescriptor d) {
  return d > kDeviceDescriptorBound;
}

}  // namespace rhodos

// Hash support so strong ids can key unordered containers.
namespace std {
template <typename Tag, typename Rep>
struct hash<rhodos::StrongId<Tag, Rep>> {
  size_t operator()(rhodos::StrongId<Tag, Rep> id) const noexcept {
    return std::hash<Rep>{}(id.value);
  }
};
}  // namespace std
