// The RHODOS basic file service (paper §5).
//
// A *flat* file service: "concerned only with implementing operations on a
// set of files without concern for any structure or relationship between
// the files." Files are mutable (like NFS/LOCUS, unlike Amoeba). The
// service:
//
//  * keeps each file's block descriptors in a file index table stored in
//    one 2 KiB fragment, created dynamically and contiguous with the first
//    data block ("eliminating the seek time to retrieve the first data
//    block");
//  * exploits the per-descriptor contiguity count so a run of n contiguous
//    blocks costs ONE get_block instead of n;
//  * persists every file index table to stable storage ("a copy of the
//    file index table is always available in stable storage");
//  * caches data blocks in its block pool, an LRU cache of
//    `block_pool_capacity` blocks, with a delayed-write policy for basic
//    files and write-through for transaction files ("the delayed-write
//    together with write-through policies are adapted");
//  * may partition a file across disks — consecutive extents are placed by
//    the registry's policy, which is how striping arises.
//
// The positional Read/Write here are the paper's pread/pwrite; the
// stateful read/write/lseek cursor lives in the client's file agent, which
// is what makes the service "nearly stateless" (§3).
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/lru_cache.h"
#include "common/result.h"
#include "common/sim_clock.h"
#include "common/types.h"
#include "disk/disk_registry.h"
#include "file/file_index_table.h"
#include "file/file_types.h"
#include "file/snap_journal.h"
#include "obs/observability.h"

namespace rhodos::file {

struct FileServiceConfig {
  // Block-cache capacity, in 8 KiB blocks (the block pool of §5). Every
  // read and write stages through the cache, so the service clamps this to
  // at least one block. Buffers are allocated as blocks enter the cache.
  std::size_t block_pool_capacity = 256;
  // Write policy for BASIC files; transaction files always write through.
  disk::WritePolicy basic_write_policy = disk::WritePolicy::kDelayed;
  // Largest extent allocated at once when a file grows, in blocks. Growth
  // beyond this rolls to the next disk under the registry's round-robin
  // policy — the striping unit of experiment E10.
  std::uint32_t extent_blocks = 64;
  // When true, a growing file first tries to extend its last extent in
  // place (AllocateSpecific), preserving contiguity.
  bool extend_in_place = true;
  // Sequential read-ahead: after two consecutive reads that each pick up
  // where the previous one ended, prefetch up to `readahead_blocks` blocks
  // past the read into the block cache (extended to the next track boundary
  // when the run allows). Any seek cancels the streak. 0 blocks disables
  // read-ahead.
  std::uint32_t readahead_blocks = 16;
  // This service's shard index. It salts every version token (shard id in
  // the top byte) so tokens minted by different shards never alias: after a
  // failover the new shard's first reply looks like a foreign write to the
  // client agent, which drops its clean cached blocks. It also picks the
  // service's snapshot journal slot, so shards never collide on disk 0.
  std::uint32_t shard = 0;
};

struct FileServiceStats {
  std::uint64_t cache_hits = 0;     // blocks served from the block cache
  std::uint64_t cache_misses = 0;
  std::uint64_t reads = 0;          // Read() calls
  std::uint64_t writes = 0;         // Write() calls
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t fit_loads = 0;      // file index tables read from disk
  std::uint64_t fit_stores = 0;     // file index tables persisted
  std::uint64_t readahead_issued = 0;  // blocks prefetched speculatively
  std::uint64_t readahead_hits = 0;    // prefetched blocks later read
  std::uint64_t readahead_wasted = 0;  // prefetched blocks dropped unread
  std::uint64_t snapshots = 0;         // Snapshot() captures
  std::uint64_t clones = 0;            // Clone() captures
  std::uint64_t cow_splits = 0;        // journaled copy-on-write splits
  std::uint64_t cow_blocks_copied = 0; // blocks copied by COW splits
  std::uint64_t shared_releases = 0;   // journaled refcounted releases
};

inline constexpr obs::CounterField<FileServiceStats> kFileServiceCounters[] = {
    {"file.cache.hits", &FileServiceStats::cache_hits},
    {"file.cache.misses", &FileServiceStats::cache_misses},
    {"file.reads", &FileServiceStats::reads},
    {"file.writes", &FileServiceStats::writes},
    {"file.bytes_read", &FileServiceStats::bytes_read},
    {"file.bytes_written", &FileServiceStats::bytes_written},
    {"file.fit_loads", &FileServiceStats::fit_loads},
    {"file.fit_stores", &FileServiceStats::fit_stores},
    {"file.readahead_issued", &FileServiceStats::readahead_issued},
    {"file.readahead_hits", &FileServiceStats::readahead_hits},
    {"file.readahead_wasted", &FileServiceStats::readahead_wasted},
    {"file.snapshots", &FileServiceStats::snapshots},
    {"file.clones", &FileServiceStats::clones},
    {"file.cow_splits", &FileServiceStats::cow_splits},
    {"file.cow_blocks_copied", &FileServiceStats::cow_blocks_copied},
    {"file.shared_releases", &FileServiceStats::shared_releases},
};

class FileService {
 public:
  FileService(disk::DiskRegistry* disks, SimClock* clock,
              FileServiceConfig config = {});

  FileService(const FileService&) = delete;
  FileService& operator=(const FileService&) = delete;

  // --- The paper's file operations (§5) ------------------------------------
  // create, open, delete, read(=pread), write(=pwrite), get-attribute,
  // close. lseek and the sequential read/write are client-agent state.

  // Creates a file. `size_hint` (bytes) preallocates that much contiguous
  // space together with the index table, which is what gives small files
  // their one-seek layout.
  Result<FileId> Create(ServiceType type, std::uint64_t size_hint = 0);

  Status Delete(FileId id);

  // Opens the file (loads and caches its index table, bumps ref_count).
  Status Open(FileId id);
  // Syncs the file (delayed writes complete at close; the index table is
  // stored only if a hard attribute changed). Soft attributes (access
  // count, last read time) do not earn a mirrored table store of their
  // own; the last close parks them in memory and the next table load folds
  // them back in.
  Status Close(FileId id);

  Result<std::uint64_t> Read(FileId id, std::uint64_t offset,
                             std::span<std::uint8_t> out);
  Result<std::uint64_t> Write(FileId id, std::uint64_t offset,
                              std::span<const std::uint8_t> in);

  Result<FileAttributes> GetAttributes(FileId id);
  Status SetLockLevel(FileId id, LockLevel level);

  // Truncates or extends the file to `size` bytes.
  Status Resize(FileId id, std::uint64_t size);

  // --- Snapshots and clones (E23) ------------------------------------------

  // Captures the file's current content as a new immutable image. O(1) in
  // file size: the image's index table references the SAME block runs as
  // the source (share counts bumped under the snapshot journal); no data
  // moves. Writes to the snapshot are refused (kPermissionDenied); writes
  // to the source copy-on-write split the shared runs.
  Result<FileId> Snapshot(FileId id);

  // As Snapshot, but the image is writable: a clone diverges from the
  // source block by block as either side is written.
  Result<FileId> Clone(FileId id);

  // Re-applies journaled snapshot operations missing their Done marker,
  // restoring the share map. Must run after disk recovery and BEFORE
  // transaction recovery (the intention log's shadow rebinds consult share
  // counts). A facility that never snapshotted pays one bitmap probe.
  Status RecoverSnapshots();

  // Share count of the block at `block_index` (1 = exclusively owned).
  Result<std::uint32_t> ShareCountOf(FileId id, std::uint64_t block_index);

  // True if any of the file's runs is marked shared (the txn service
  // forces the shadow-page technique for such files).
  Result<bool> HasSharedRuns(FileId id);

  // Blocks currently shared between two or more files (gauge).
  std::uint64_t SharedBlockCount() const {
    return snap_journal_.map().SharedBlockCount();
  }

  SnapJournal& snap_journal() { return snap_journal_; }

  // Test hook (fsck regressions): overwrites the STORED share count of a
  // run without journaling — i.e. manufactures exactly the corruption fsck
  // must catch. Never use outside tests.
  Status TestSetShareCount(DiskId disk, FragmentIndex first_fragment,
                           std::uint32_t block_count, std::uint32_t count);

  // Durability of the file's data and hard metadata: writes back its dirty
  // cached blocks and stores its index table only if a hard attribute
  // (size, runs, service type, lock level) changed. Soft attributes stay
  // dirty in memory and ride the next table store. Close and transaction
  // commits (and their recovery redo) go through here.
  Status Sync(FileId id);
  // Sync plus the soft attributes: also stores the table when only access
  // counts or read times changed, parked ones of a closed file included.
  Status Flush(FileId id);
  // Flush of every file, best effort per file: what cannot be written stays
  // in memory (a table waits for its own data) and the first error is
  // returned. The facility's epoch fence runs it before purging a shard.
  Status FlushAll();

  // --- Block-level interface for the transaction service -------------------

  // Number of logical 8 KiB blocks currently mapped.
  Result<std::uint64_t> BlockCount(FileId id);

  // Reads/writes one logical block (transaction page). Write goes through
  // the cache with the file's policy.
  Status ReadBlock(FileId id, std::uint64_t block_index,
                   std::span<std::uint8_t> out);
  Status WriteBlock(FileId id, std::uint64_t block_index,
                    std::span<const std::uint8_t> in,
                    bool force_write_through = false);

  // Physical location of a logical block (for WAL/shadow decisions).
  Result<BlockLocation> LocateBlock(FileId id, std::uint64_t block_index);

  // True iff the file's data blocks form one contiguous run — the paper's
  // criterion for choosing WAL over shadow paging at commit (§6.7).
  Result<bool> IsContiguous(FileId id);

  // Shadow-page commit primitive: rebinds logical block `block_index` to a
  // freshly written physical block at (disk, fragment); the old block is
  // freed. Persists the index table (original + stable).
  Status ReplaceBlock(FileId id, std::uint64_t block_index, DiskId disk,
                      FragmentIndex fragment);

  // Allocates one free block on the file's home disk (or any disk) without
  // linking it into any file — shadow-page staging space.
  Result<disk::DiskRegistry::Placement> AllocateShadowBlock(FileId id);

  // --- Failure model --------------------------------------------------------

  // Loss of the server machine's volatile state: block cache and cached
  // index tables vanish; dirty (delayed-write) data is lost, and access
  // counts revert to the last stored table (parked soft attributes die).
  void Crash();

  // --- Coherence ------------------------------------------------------------

  // Per-file monotonic version token, bumped on every mutation (write,
  // block write/replace, resize, delete) and on a server crash (delayed
  // writes lost — cached copies of the pre-crash state must revalidate).
  // The file-service server piggybacks it on open/getattr/pread/pwrite
  // replies so client agents can invalidate stale cached blocks. Files
  // start at version 1; a deleted file's slot keeps counting so a FileId
  // reused at the same index table location cannot alias an old token.
  std::uint64_t Version(FileId id) const;

  // Fired from BumpVersion with the post-bump token, i.e. inside the
  // mutating operation, before its reply is assembled. The file-service
  // server hangs callback breaks off this hook so that every mutation path
  // (bus handlers, transaction commits, replication repair) revokes
  // outstanding callback promises before the mutation is acknowledged.
  using MutationListener = std::function<void(FileId, std::uint64_t)>;
  void SetMutationListener(MutationListener listener) {
    mutation_listener_ = std::move(listener);
  }

  // Fired at the start of Crash(): volatile server state (including any
  // callback table layered above) is lost, so the listener can drop its
  // table and start a grace period instead of fanning out breaks.
  using CrashListener = std::function<void()>;
  void SetCrashListener(CrashListener listener) {
    crash_listener_ = std::move(listener);
  }

  // --- Introspection --------------------------------------------------------

  const FileServiceStats& stats() const { return stats_; }
  void ResetStats() { stats_ = FileServiceStats{}; }

  // Installed by the facility; null means no tracing/metrics.
  void SetObservability(obs::Observability* o) { obs_ = o; }
  disk::DiskRegistry* disks() { return disks_; }
  SimClock* clock() { return clock_; }
  const FileServiceConfig& config() const { return config_; }
  // Blocks the block cache holds now.
  std::size_t CachedBlocks() const { return cache_.size(); }

  // Contiguity of the file's layout, 1.0 = fully contiguous (bench metric).
  Result<double> ContiguityIndex(FileId id);

  // Physical runs of the file's data blocks and the locations of its
  // indirect blocks (consistency audits — see file/fsck.h).
  Result<std::vector<BlockDescriptor>> FileRuns(FileId id);
  Result<std::vector<BlockDescriptor>> IndirectBlockLocations(FileId id);

 private:
  struct OpenFile {
    FileIndexTable table;
    // On-disk locations of the table's indirect blocks (control data).
    std::vector<BlockDescriptor> indirect_blocks;
    // Hard changes (size, runs, service type, lock level): stored at close
    // at the latest.
    bool table_dirty = false;
    // Soft attribute changes (access count, last read time): ride the next
    // table store or an explicit Flush/FlushAll, never a store of their own
    // — not at close (which parks them) and not at a transaction commit.
    bool attrs_dirty = false;
    std::uint32_t pins = 0;  // open handles
    // Sequential-access detector state for read-ahead: the byte offset the
    // next read would start at if the client is streaming, and how many
    // consecutive reads have matched it.
    std::uint64_t next_expected_offset = ~std::uint64_t{0};
    std::uint32_t sequential_streak = 0;
    // Mapped blocks past the size's last block hold whatever the platter
    // held (Create maps a size hint's run without writing it), except these:
    // blocks a block-level write (WriteBlock, ReplaceBlock) defined before
    // the size grew over them, as a transaction's page apply does.
    std::set<std::uint64_t> written_past_size;
  };

  struct CacheEntry {
    std::vector<std::uint8_t> data;  // kBlockSize bytes
    bool dirty = false;
    bool prefetched = false;  // brought in by read-ahead, not yet read
  };

  // Soft attributes of a closed file whose last close found nothing else
  // to store.
  struct ParkedAttrs {
    std::uint64_t access_count = 0;
    SimTime last_read_time = 0;
  };

  // Loads (or returns the already-loaded) index table of `id`, folding in
  // any parked soft attributes.
  Result<OpenFile*> LoadTable(FileId id);

  // Drops cached index tables and their parked soft attributes — of one
  // file when `only` is non-null, of all files otherwise. Every path that
  // discards a table without storing it goes through here, so parked
  // values never outlive the file they belong to.
  void ForgetTables(const FileId* only);

  // Stores the table of a closed file with parked soft attributes (load,
  // store, drop again).
  Status StoreParked(FileId id);

  // Shared Snapshot/Clone body: one kImage journal op.
  Result<FileId> CaptureImage(FileId id, std::uint8_t image_flags);

  // Copy-on-write: guarantees logical blocks [first_block, +count) of the
  // file are exclusively owned before they are overwritten, splitting
  // shared pieces (allocate + copy + journaled rebind) and lazily clearing
  // stale shared flags whose count already dropped back to one.
  Status EnsureExclusive(FileId id, OpenFile& of, std::uint64_t first_block,
                         std::uint64_t count);

  // One journaled COW split of a uniformly-shared piece; allocates the
  // copy target (falling back to smaller chunks), copies via the block
  // path, and rebinds. Returns the number of blocks handled (>= 1).
  Result<std::uint32_t> CowSplit(FileId id, OpenFile& of,
                                 std::uint64_t first_block,
                                 std::uint32_t count, std::uint32_t share);

  // Idempotent redo half of every journaled snapshot operation: bitmap
  // claims, index-table rewrites, share-count installs, frees. Called
  // once inline after LogOp and again from RecoverSnapshots for ops whose
  // Done marker is missing. May invalidate OpenFile pointers.
  Status ApplySnapOp(const SnapOp& op);

  // Builds the ref_edits (count - 1) and frees (count hit zero) for
  // releasing `run`, appending to `op`.
  void BuildRelease(const BlockDescriptor& run, SnapOp& op);

  // Drops every cache entry of `id` at logical block >= `from`.
  void PurgeCache(FileId id, std::uint64_t from);
  // Drops one cache entry, if cached.
  void Drop(const BlockKey& key);
  // True when a block of `id` waits in the cache for its disk.
  bool HoldsDirty(FileId id) const;
  // Persists the table of `id` (fragment + indirect blocks) to original and
  // stable storage. `fresh` says the table's locations were allocated by
  // the caller and hold nothing live (Create), so each block's two copies
  // may be written concurrently; otherwise main goes before mirror.
  Status StoreTable(FileId id, OpenFile& of, bool fresh = false);

  // Grows the file by `blocks` logical blocks, preferring in-place
  // extension, then fresh extents placed by the registry.
  Status Grow(FileId id, OpenFile& of, std::uint64_t blocks);
  // Before the size grows: zero-fills the blocks in [size's last block,
  // min(end, mapped)) that the file never wrote, so the growth exposes
  // zeros. `mapped` is the block count before any Grow of this growth
  // (Grow zero-fills what it maps).
  Status ZeroUnwritten(FileId id, OpenFile& of, std::uint64_t end,
                       std::uint64_t mapped);

  // Cache plumbing.
  Result<CacheEntry*> CacheInsert(FileId id, std::uint64_t block,
                                  std::span<const std::uint8_t> data,
                                  bool dirty);
  Status EvictOne();
  Status WritebackEntry(const BlockKey& key, CacheEntry& entry);
  // Accounting hook for an entry leaving the cache (eviction, purge,
  // crash): an unread prefetched block counts as wasted read-ahead.
  void NoteDropped(const CacheEntry& entry) {
    if (entry.prefetched) ++stats_.readahead_wasted;
  }
  // Writes back every dirty cached block (of one file when `only` is
  // non-null, of all files otherwise) as per-disk vectored batches issued
  // under one overlapped section.
  Status WritebackDirty(const FileId* only);

  // One block bound for the disk service.
  struct PendingPut {
    disk::DiskServer* server;
    FragmentIndex frag;
    std::span<const std::uint8_t> data;
    bool* dirty = nullptr;  // cleared once the block's disk took it
  };
  // Writes blocks as one submission per disk, disks overlapping. Every
  // disk is tried; the first failure is returned.
  Status PutPerDisk(std::vector<PendingPut> puts);

  // Reads logical blocks [first, first+count) into out, coalescing
  // physically contiguous uncached spans into single disk references and
  // overlapping the per-disk sub-batches of a striped span set.
  Status ReadBlocks(FileId id, OpenFile& of, std::uint64_t first,
                    std::uint64_t count, std::span<std::uint8_t> out);

  // Speculatively fetches up to config_.readahead_blocks blocks starting at
  // `from` into the cache (track-aligned when the run allows), marking them
  // prefetched. Never fails the triggering read: errors are swallowed.
  Status ReadAhead(FileId id, OpenFile& of, std::uint64_t from);

  disk::WritePolicy PolicyFor(const OpenFile& of) const;

  void BumpVersion(FileId id);
  std::uint64_t TokenSalt() const {
    return std::uint64_t{config_.shard} << 56;
  }

  disk::DiskRegistry* disks_;
  SimClock* clock_;
  FileServiceConfig config_;
  SnapJournal snap_journal_;
  std::unordered_map<FileId, OpenFile> open_files_;
  // Never holds a FileId that open_files_ holds: LoadTable moves an entry
  // back into the table it folds into.
  std::unordered_map<FileId, ParkedAttrs> parked_attrs_;
  BlockLruCache<CacheEntry> cache_;
  // Mutation counters behind Version(). Entries outlive Delete on purpose
  // (see Version() comment); absent entries read as version 1.
  std::unordered_map<FileId, std::uint64_t> versions_;
  FileServiceStats stats_;
  obs::Observability* obs_ = nullptr;
  MutationListener mutation_listener_;
  CrashListener crash_listener_;
};

// The FileService that serves `id` right now. The services layered above
// the basic file service (transactions, replication) reach every file
// through one: a sharded facility answers with the file's routed shard, a
// lone service with itself. A create passes the null FileId{}: no id
// exists until the registry mints one, so any live shard may create, and
// the null id names one deterministically.
using FileResolver = std::function<FileService&(FileId)>;

}  // namespace rhodos::file
