// Lock vocabulary of the RHODOS transaction service (paper §6.3, Table 1).
//
// Three lock modes: read-only (RO), Iread (IR) and Iwrite (IW).
//
//   * RO  — taken to perform a query. Shareable with other ROs and with a
//           single IR.
//   * IR  — taken when a transaction reads a data item *in order to modify
//           it*. Grantable when the item is free or only RO-locked; once an
//           IR is in place no NEW RO may be set (prevents permanent
//           blocking), and no second IR may join (sharing IRs would force
//           mass aborts when one of them commits a modification).
//   * IW  — exclusive. Grantable when the item is free, or as a conversion
//           from an IR held by the SAME transaction once no other locks
//           remain on the item.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/types.h"
#include "file/file_types.h"

namespace rhodos::txn {

// The locking level lives with the file attributes (it is recorded in the
// file index table); alias it into the lock vocabulary.
using LockLevel = file::LockLevel;

enum class LockMode : std::uint8_t { kReadOnly = 0, kIRead = 1, kIWrite = 2 };

std::string_view LockModeName(LockMode mode);

// Phase of a two-phase-locking transaction (§6.2): in the locking phase new
// locks are acquired; in the unlocking phase (entered at commit/abort) locks
// are only released.
enum class TxnPhase : std::uint8_t { kLocking = 0, kUnlocking = 1 };

// Status kept in the intention flag (§6.7).
enum class TxnStatus : std::uint8_t {
  kTentative = 0,
  kCommit = 1,
  kAbort = 2,
};

// A lockable data item: a byte range of a file. The three granularities
// (§6.1) all map onto ranges —
//   record level: the exact byte range the operation touches;
//   page level:   [page * kBlockSize, (page+1) * kBlockSize);
//   file level:   [0, infinity).
// Two items conflict iff they are in the same file and their ranges
// intersect.
struct DataItem {
  FileId file{};
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  // exclusive; kWholeFile for file-level locks

  static constexpr std::uint64_t kWholeFile = ~std::uint64_t{0};

  static DataItem Record(FileId f, std::uint64_t offset, std::uint64_t len) {
    return {f, offset, offset + len};
  }
  static DataItem Page(FileId f, std::uint64_t page) {
    return {f, page * kBlockSize, (page + 1) * kBlockSize};
  }
  static DataItem File(FileId f) { return {f, 0, kWholeFile}; }

  bool Overlaps(const DataItem& other) const {
    return file == other.file && begin < other.end && other.begin < end;
  }
  friend bool operator==(const DataItem&, const DataItem&) = default;
};

// Lock compatibility per Table 1 of the paper, excluding the same-
// transaction IR->IW conversion (which LockTable handles explicitly since
// it needs to know who holds what).
//
//            requested:  RO     IR     IW
//   held none:           ok     ok     ok
//   held RO:             ok     ok     wait
//   held IR:             wait   wait   wait (except same-txn conversion)
//   held IW:             wait   wait   wait
constexpr bool Compatible(LockMode held, LockMode requested) {
  return held == LockMode::kReadOnly &&
         (requested == LockMode::kReadOnly || requested == LockMode::kIRead);
}

}  // namespace rhodos::txn
