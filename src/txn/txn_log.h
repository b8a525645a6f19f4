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
// records are removed: the transaction service keeps them until a
// checkpoint has landed every write they cover, then resets the log.
//
// TxnLog is the persistent representation: an append-only region of
// fragments written EXCLUSIVELY to stable storage (put_block's
// stable-only mode), so the list survives both a machine crash and the
// loss of the main platter.
//
// Framing is two-level (disk/stable_frame.h has the layouts): a batch
// frame whose payload is a run of record frames, one intention each. Group
// commit forces many records with one disk reference, and a single-record
// Append() is a batch of one. A batch whose checksum fails (a torn force)
// is replayed record by record: every record frame whose own checksum
// holds is a prefix the device persisted before the tear, and the
// write-ahead append order guarantees a commit-status record never
// salvages without the intention records it covers. A batch frame with
// no records and a payload is padding: a force whose last fragment has
// less room left than its largest frame fills that room with one, so the
// next force starts on a fresh fragment instead of rewriting the partial
// one and running into the next; the scan steps over it.
//
// `gen` is the log generation. Every reset starts a new generation at
// offset 0, the scan stops at the first frame of another generation than
// the frame at offset 0, and both checksums are seeded with it: bytes an
// earlier generation left further into the region are never replayed,
// even when a torn force leaves one of its record frames aligned where a
// new one should be. That is what lets a reset stay in memory
// (ResetLazily): the next force lands at offset 0 under the new
// generation and makes the reset durable for free.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/serializer.h"
#include "common/types.h"
#include "disk/disk_server.h"
#include "disk/stable_frame.h"
#include "file/file_types.h"
#include "obs/metrics.h"
#include "txn/lock_types.h"

namespace rhodos::txn {

enum class IntentionKind : std::uint8_t {
  kBegin = 1,      // transaction entered the log
  kRedoPage = 2,   // WAL: full 8 KiB page image to write in place
  kRedoRange = 3,  // WAL: byte-range image (record-level locking)
  kShadowMap = 4,  // shadow page: logical block -> new physical block
  kStatus = 5,     // intention flag transition (commit / abort)
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
  // kRedoPage / kRedoRange: the payload. kShadowMap: the 8-byte
  // disk::BlockChecksum of the page image written to the new block, which
  // recovery checks both copies against before it redoes the remap, then
  // the disk (4 bytes) and first fragment (8 bytes) of the block the remap
  // replaces, which recovery frees if no file maps it any more; a shared
  // replaced block is left out.
  std::vector<std::uint8_t> data;
};

struct TxnLogStats {
  std::uint64_t appends = 0;       // records appended
  std::uint64_t batches = 0;       // batch frames appended
  std::uint64_t forces = 0;        // stable-storage force writes issued
  std::uint64_t bytes_logged = 0;
  std::uint64_t truncations = 0;
  std::uint64_t reset_writes = 0;  // stable writes spent on resets
  std::uint64_t torn_records_skipped = 0;
  std::uint64_t torn_batches = 0;      // batch checksum failures at scan
  std::uint64_t salvaged_records = 0;  // records replayed from torn batches
};

inline constexpr obs::CounterField<TxnLogStats> kTxnLogCounters[] = {
    {"txn.log.forces", &TxnLogStats::forces},
    {"txn.log.records", &TxnLogStats::appends},
    {"txn.log.reset_writes", &TxnLogStats::reset_writes},
    {"txn.log.salvaged_records", &TxnLogStats::salvaged_records},
    {"txn.log.torn_batches", &TxnLogStats::torn_batches},
};

// Result of a read-only structural walk of the persistent log image.
struct TxnLogAudit {
  std::uint64_t batches = 0;  // padding frames not counted
  std::uint64_t records = 0;
  std::uint64_t torn_batches = 0;
  std::uint64_t salvaged_records = 0;
  std::uint64_t torn_records = 0;  // torn batches ended by a bad record
  std::uint64_t bytes_valid = 0;   // byte length of the fully-valid prefix
  std::uint32_t generation = 0;    // of the frame at offset 0 (0 if none)

  // A torn tail batch is the expected signature of a crash mid-force;
  // "clean" means every frame present parses and checksums.
  bool clean() const { return torn_batches == 0; }
};

class TxnLog {
 public:
  // Bytes a batch frame adds around its payload: header and checksum.
  static constexpr std::uint64_t kBatchOverhead = disk::FrameBytes(0, 2);

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

  // Group-commit force: stages every frame contiguously at the head, and
  // the padding when it is due, and pushes the whole run to stable
  // storage with one put. The payloads'
  // record frames must have been framed under generation(). On failure the
  // head does not advance, so a later append restages over the (possibly
  // torn) region. A force at offset 0 also makes a pending reset durable.
  Status AppendFrames(std::span<const BatchFramePayload> frames);

  // get_intention / recovery scan: replays every valid record of the
  // generation at offset 0, in append order, from stable storage. A torn
  // tail batch is salvaged record by record; the scan stops there and
  // later appends overwrite the tear. The log adopts the persistent image
  // and its generation, and no reset is pending afterwards.
  Status Scan(const std::function<void(const IntentionRecord&)>& fn);

  // Read-only structural audit of the persistent image: walks batch and
  // record frames without adopting the image or mutating the head.
  Result<TxnLogAudit> Audit();

  // remove_intention, in bulk: empties the log in memory and starts a new
  // generation, writing nothing. Until the reset is durable the stable
  // image still holds the previous generation, which a recovery would
  // redo. It becomes durable with the next force (which lands at offset 0
  // under the new generation) or with ForceReset(), whichever comes first.
  // Safe only once every write the records cover has landed and no record
  // framed under the current generation waits to be forced
  // (TransactionService::Checkpoint checks both). A log with nothing
  // forced since its last reset stays as it is.
  void ResetLazily();

  // Makes a pending reset durable: writes an empty batch frame of the new
  // generation at offset 0, so a scan finds an empty log and adopts the
  // generation. No-op when no reset is pending. A failed write leaves the
  // reset pending, and the checkpoint that asked for it fails.
  Status ForceReset();

  // Eager remove_intention: ResetLazily() then ForceReset().
  Status Truncate();

  bool reset_pending() const { return reset_pending_; }
  std::uint32_t generation() const { return generation_; }
  std::uint64_t BytesUsed() const { return region_.head(); }
  std::uint64_t Capacity() const { return region_.capacity(); }
  const TxnLogStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TxnLogStats{}; }

 private:
  disk::StableRegion region_;
  std::uint32_t generation_ = 0;  // stamped on every frame written
  // Frames of this generation may be on stable storage (a force was
  // attempted, or a scan found records or a tear); a reset with none
  // there has nothing to remove.
  bool appended_ = false;
  // Set by ResetLazily, cleared by whichever write makes the reset
  // durable.
  bool reset_pending_ = false;
  TxnLogStats stats_;
};

// Serialization helpers shared with tests.
void SerializeIntention(Serializer& out, const IntentionRecord& record);
Result<IntentionRecord> DeserializeIntention(Deserializer& in);

// Appends one framed record (magic, length, payload, checksum seeded with
// `generation`) to `out` — the unit the group-commit pipeline accumulates
// into a batch payload.
void AppendRecordFrame(std::vector<std::uint8_t>& out,
                       const IntentionRecord& record,
                       std::uint32_t generation);

}  // namespace rhodos::txn
