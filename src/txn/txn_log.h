// The intentions list on stable storage (paper §6.6–§6.7).
//
// The RHODOS transaction service recovers from system and media failures
// with the *intentions list* approach: every change a transaction wants to
// make is first recorded as an intention, together with an *intention flag*
// giving the transaction's status (tentative / commit / abort). When the
// flag says commit, the changes in the list are made permanent — by write
// ahead logging when the file's data blocks are contiguous (WAL preserves
// contiguity) or by the shadow page technique when they are not; record
// level locking always uses WAL. After the changes are permanent the
// records are removed.
//
// TxnLog is the persistent representation: an append-only region of
// fragments written EXCLUSIVELY to stable storage (put_block's
// stable-only mode), so the list survives both a machine crash and the
// loss of the main platter.
//
// On-disk framing is two-level, so group commit can force many records
// with one disk reference and recovery can still salvage a torn tail
// record-by-record:
//
//   batch frame:  [u32 magic "TNLB"][u32 payload_len][u32 records][u32 0]
//                 [payload][u64 fnv64(payload)]
//   payload:      concatenation of record frames
//   record frame: [u32 magic "TNLG"][u32 len][record][u64 fnv64(record)]
//
// A single-record Append() is simply a batch of one. At scan time a batch
// whose checksum fails (a torn group-commit force) is replayed record by
// record: every record frame whose own checksum holds is a prefix the
// device persisted before the tear, and the write-ahead append order
// guarantees a commit-status record never salvages without the intention
// records it covers.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/serializer.h"
#include "common/types.h"
#include "disk/disk_server.h"
#include "file/file_types.h"
#include "obs/metrics.h"
#include "txn/lock_types.h"

namespace rhodos::txn {

enum class IntentionKind : std::uint8_t {
  kBegin = 1,      // transaction entered the log
  kRedoPage = 2,   // WAL: full 8 KiB page image to write in place
  kRedoRange = 3,  // WAL: byte-range image (record-level locking)
  kShadowMap = 4,  // shadow page: logical block -> new physical block
  kStatus = 5,     // intention flag transition (commit / abort / completed)
  kDeleteFile = 6, // committed delete: redo releases the file's blocks
};

// One record of the intentions list. Only the fields relevant to `kind`
// are meaningful.
struct IntentionRecord {
  IntentionKind kind{IntentionKind::kBegin};
  TxnId txn{};
  FileId file{};
  std::uint64_t block_index = 0;   // kRedoPage / kShadowMap
  std::uint64_t offset = 0;        // kRedoRange
  DiskId new_disk{};               // kShadowMap
  FragmentIndex new_fragment = 0;  // kShadowMap
  TxnStatus status{TxnStatus::kTentative};  // kStatus
  std::vector<std::uint8_t> data;  // kRedoPage / kRedoRange payload
};

struct TxnLogStats {
  std::uint64_t appends = 0;       // records appended
  std::uint64_t batches = 0;       // batch frames appended
  std::uint64_t forces = 0;        // stable-storage force writes issued
  std::uint64_t bytes_logged = 0;
  std::uint64_t truncations = 0;
  std::uint64_t torn_records_skipped = 0;
  std::uint64_t torn_batches = 0;      // batch checksum failures at scan
  std::uint64_t salvaged_records = 0;  // records replayed from torn batches
};

inline constexpr obs::CounterField<TxnLogStats> kTxnLogCounters[] = {
    {"txn.log.forces", &TxnLogStats::forces},
    {"txn.log.records", &TxnLogStats::appends},
    {"txn.log.salvaged_records", &TxnLogStats::salvaged_records},
    {"txn.log.torn_batches", &TxnLogStats::torn_batches},
};

// Result of a read-only structural walk of the persistent log image.
struct TxnLogAudit {
  std::uint64_t batches = 0;
  std::uint64_t records = 0;
  std::uint64_t torn_batches = 0;
  std::uint64_t salvaged_records = 0;
  std::uint64_t bytes_valid = 0;  // byte length of the fully-valid prefix

  // A torn tail batch is the expected signature of a crash mid-force;
  // "clean" means every frame present parses and checksums.
  bool clean() const { return torn_batches == 0; }
};

class TxnLog {
 public:
  // Bytes a batch frame adds around its payload: 16-byte header plus the
  // 8-byte batch checksum.
  static constexpr std::uint64_t kBatchOverhead = 24;

  // One batch frame ready to force: the concatenated record frames (see
  // AppendRecordFrame) and how many records they hold.
  struct BatchFramePayload {
    std::vector<std::uint8_t> payload;
    std::uint32_t records = 0;
  };

  // The log owns [first_fragment, first_fragment + fragment_count) on
  // `server`'s stable storage. The caller allocates the region.
  TxnLog(disk::DiskServer* server, FragmentIndex first_fragment,
         std::uint64_t fragment_count);

  // set_intention: appends a record and forces it to stable storage before
  // returning (this is what makes the log "write ahead"). Framed as a
  // batch of one.
  Status Append(const IntentionRecord& record);

  // Group-commit force: stages every frame contiguously at the head and
  // pushes the whole run to stable storage with one vectored put. On
  // failure the head does not advance, so a later append restages over the
  // (possibly torn) region.
  Status AppendFrames(std::span<const BatchFramePayload> frames);

  // get_intention / recovery scan: replays every valid record in append
  // order from stable storage. A torn tail batch is salvaged record by
  // record; the scan stops there and later appends overwrite the tear.
  Status Scan(const std::function<void(const IntentionRecord&)>& fn);

  // Read-only structural audit of the persistent image: walks batch and
  // record frames without adopting the image or mutating the head.
  Result<TxnLogAudit> Audit();

  // remove_intention, in bulk: resets the log to empty. Safe only when no
  // transaction is active (the service checkpoints at quiescence).
  Status Truncate();

  std::uint64_t BytesUsed() const { return head_; }
  std::uint64_t Capacity() const { return region_bytes_; }
  const TxnLogStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TxnLogStats{}; }

 private:
  Status WriteBack(std::uint64_t begin_byte, std::uint64_t end_byte);

  // Shared frame walker for Scan/Audit. Returns the end offset of the last
  // fully-valid batch frame; `fn` may be null (audit-only).
  std::uint64_t WalkImage(std::span<const std::uint8_t> image,
                          const std::function<void(const IntentionRecord&)>* fn,
                          TxnLogAudit* audit);

  disk::DiskServer* server_;
  FragmentIndex first_fragment_;
  std::uint64_t region_bytes_;
  std::vector<std::uint8_t> buffer_;  // in-memory image of the region
  std::uint64_t head_ = 0;            // append offset
  TxnLogStats stats_;
};

// Serialization helpers shared with tests.
void SerializeIntention(Serializer& out, const IntentionRecord& record);
Result<IntentionRecord> DeserializeIntention(Deserializer& in);

// Appends one framed record (magic, length, payload, checksum) to `out` —
// the unit the group-commit pipeline accumulates into a batch payload.
void AppendRecordFrame(std::vector<std::uint8_t>& out,
                       const IntentionRecord& record);

}  // namespace rhodos::txn
