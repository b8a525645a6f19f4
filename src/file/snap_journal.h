// The snapshot journal: durability for share-count edits (snapshots,
// clones, COW splits, refcounted releases).
//
// The facility's invariant is that a block is freed exactly when its share
// count reaches zero and that share counts only ever change under this
// journal. Each operation is committed with ONE stable-storage force of an
// op record carrying *absolute* piece counts (idempotent to replay), then
// applied (index-table rewrites, bitmap edits, frees), then marked Done.
// Recovery replays every op record in order to rebuild the ShareMap and
// re-applies any op without a Done marker — the apply step is idempotent,
// so a crash at any stable-write boundary yields all-or-nothing.
//
// On disk the journal owns a reserved region at the TAIL of disk 0 (one
// region per file-service shard, indexed by `slot`), written exclusively
// to stable storage like the intention log:
//
//   [checkpoint slot A][checkpoint slot B][append-only op log]
//
// Each slot is an eighth of the region and holds one "RSNC" frame whose
// payload is [u64 seq][ShareMap image]; the log is a run of "RSNL" frames
// whose payload is [u8 1][op] or [u8 2][u64 done seq]. disk/stable_frame.h
// owns both frame layouts and the log's region.
//
// Checkpoints alternate between the two slots (highest valid seq wins), so
// a crash mid-checkpoint leaves the previous image intact. A checkpoint is
// only taken at quiescence (no pending op), which keeps the common-path
// snapshot cost O(1): one op force + one done force.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "common/result.h"
#include "common/serializer.h"
#include "common/types.h"
#include "disk/disk_registry.h"
#include "disk/stable_frame.h"
#include "file/file_types.h"
#include "file/share_map.h"

namespace rhodos::file {

enum class SnapOpKind : std::uint8_t {
  kImage = 1,     // snapshot or clone capture
  kCowSplit = 2,  // copy-on-write split of a shared range
  kRelease = 3,   // refcounted release (delete / truncate / shadow rebind)
};

// Absolute share count to install for a run of blocks (idempotent).
struct SnapRefEdit {
  DiskId disk;
  FragmentIndex first_fragment;
  std::uint32_t block_count;
  std::uint32_t count;
};

// A fragment range whose share count reached zero: freed at apply.
struct SnapFree {
  DiskId disk;
  FragmentIndex first_fragment;
  std::uint32_t fragment_count;
};

// One journaled operation. Only the fields relevant to `kind` are set.
struct SnapOp {
  std::uint64_t seq = 0;  // assigned by LogOp
  SnapOpKind kind{SnapOpKind::kImage};
  FileId file{};    // kImage: the new image id; else the mutated file
  FileId source{};  // kImage: capture source
  std::uint8_t image_flags = 0;     // kImage: kImageSnapshot / kImageClone
  std::uint64_t first_block = 0;    // kCowSplit / kRelease(rebind)
  std::uint32_t block_count = 0;    // kCowSplit / kRelease(rebind)
  DiskId new_disk{};                // kCowSplit / kRelease(rebind)
  FragmentIndex new_fragment = 0;
  bool rebind = false;     // kRelease: also rebind [first_block, +count)
  bool scrub_fit = false;  // kRelease: scrub + free the file's index table
  bool truncate = false;   // kRelease: truncate the table to `first_block`
  std::vector<SnapRefEdit> ref_edits;
  std::vector<SnapFree> frees;
};

struct SnapJournalStats {
  std::uint64_t ops_logged = 0;
  std::uint64_t dones_logged = 0;
  std::uint64_t forces = 0;       // stable region writes issued
  std::uint64_t checkpoints = 0;
  std::uint64_t replayed_ops = 0;  // op records scanned at recovery
  std::uint64_t torn_records_skipped = 0;
};

class SnapJournal {
 public:
  // The journal claims `region_fragments` fragments at the tail of disk 0,
  // `slot` regions up from the end (slot = the owning shard's index, so
  // shards sharing the substrate never collide).
  SnapJournal(disk::DiskRegistry* disks, std::uint64_t region_fragments,
              std::uint32_t slot);

  // Claims (first use) or adopts (after restart) the region, loading the
  // checkpoint and replaying the log into `map()`. Idempotent; cheap once
  // loaded. Every other method requires a successful Ensure first.
  Status Ensure();
  bool loaded() const { return loaded_; }

  // True when the region already holds a journal (region allocated and a
  // valid checkpoint frame in either slot) — i.e. recovery should adopt
  // it. Never claims or writes, so a facility that has never snapshotted
  // pays nothing at recovery.
  Result<bool> Probe();

  ShareMap& map() { return map_; }
  const ShareMap& map() const { return map_; }

  // Commit point: assigns a sequence number, appends the op record and
  // forces it to stable storage, and applies its ref_edits to the in-memory
  // map. After this returns OK the operation WILL survive any crash.
  Result<std::uint64_t> LogOp(SnapOp& op);

  // Marks `seq` applied. At quiescence with the log nearly full, rewrites
  // the checkpoint and resets the log.
  Status LogDone(std::uint64_t seq);

  // Ops whose Done marker is missing, in sequence order (recovery redo
  // list). Cleared by the call.
  std::vector<SnapOp> TakePending();

  // Machine crash: volatile state (map, head, pending) is lost; the region
  // on stable storage survives. The next Ensure reloads everything.
  void Reset();

  // Region geometry, for fsck's reserved-range accounting.
  DiskId RegionDisk() const { return DiskId{0}; }
  FragmentIndex RegionFirst() const { return region_first_; }
  std::uint64_t RegionFragments() const { return region_fragments_; }

  const SnapJournalStats& stats() const { return stats_; }

 private:
  std::uint64_t SlotFragments() const { return region_fragments_ / 8; }
  disk::StableRegion CheckpointSlot(disk::DiskServer* server,
                                    FragmentIndex region_first,
                                    std::uint8_t s) const {  // 0 = A, 1 = B
    return {server, region_first + s * SlotFragments(), SlotFragments()};
  }
  Status WriteCheckpoint();
  Status AppendRecord(std::span<const std::uint8_t> payload);

  disk::DiskRegistry* disks_;
  std::uint64_t region_fragments_;
  std::uint32_t slot_;

  bool loaded_ = false;
  FragmentIndex region_first_ = 0;

  ShareMap map_;
  disk::StableRegion log_;  // the append-only op log after the two slots
  std::uint64_t next_seq_ = 1;
  std::uint64_t ckpt_seq_ = 0;           // seq covered by last checkpoint
  std::uint8_t ckpt_slot_ = 0;           // slot the NEXT checkpoint targets
  std::set<std::uint64_t> pending_seqs_;
  std::vector<SnapOp> pending_ops_;      // recovered, not yet re-applied
  SnapJournalStats stats_;
};

// Serialization shared with tests.
void SerializeSnapOp(Serializer& out, const SnapOp& op);
Result<SnapOp> DeserializeSnapOp(Deserializer& in);

}  // namespace rhodos::file
