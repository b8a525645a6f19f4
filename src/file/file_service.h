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
//  * caches data blocks in its block pool, a cache of
//    `block_pool_capacity` blocks, with a delayed-write policy for basic
//    files and write-through for transaction files ("the delayed-write
//    together with write-through policies are adapted"). The pool evicts
//    first the oldest block no read has hit since it came in whose
//    fragments the disk's track cache still holds (a later read of it
//    reaches no platter either way), else its least recent clean block;
//  * may partition a file across disks — consecutive extents are placed by
//    the registry's policy, which is how striping arises.
//
// The positional Read/Write here are the paper's pread/pwrite; the
// stateful read/write/lseek cursor lives in the client's file agent, which
// is what makes the service "nearly stateless" (§3).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
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

// When a basic file's write reaches its disk (§5). The block pool is the
// only cache that holds a write back: the disk service writes every put
// through.
enum class WritePolicy : std::uint8_t {
  kWriteThrough,  // before the write returns
  kDelayed,       // dirty in the block pool until a sync, close, flush or
                  // eviction writes it back
};

struct FileServiceConfig {
  // Block-cache capacity, in 8 KiB blocks (the block pool of §5). Every
  // read and write stages through the cache, so the service clamps this to
  // at least one block. Buffers are allocated as blocks enter the cache.
  std::size_t block_pool_capacity = 256;
  // Write policy for BASIC files; transaction files always write through.
  WritePolicy basic_write_policy = WritePolicy::kDelayed;
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
  // Evictions of a clean block whose fragments its disk's track cache held.
  std::uint64_t track_cached_evictions = 0;
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
    {"file.cache.track_cached_evictions",
     &FileServiceStats::track_cached_evictions},
    {"file.snapshots", &FileServiceStats::snapshots},
    {"file.clones", &FileServiceStats::clones},
    {"file.cow_splits", &FileServiceStats::cow_splits},
    {"file.cow_blocks_copied", &FileServiceStats::cow_blocks_copied},
    {"file.shared_releases", &FileServiceStats::shared_releases},
};

// One shadow remap: logical block `block_index` now lives in the block at
// (disk, fragment).
struct BlockRebind {
  std::uint64_t block_index = 0;
  DiskId disk{};
  FragmentIndex fragment = 0;
};

// One write of a file's logged state (see FileService::TakeLoggedWrites):
// a data block to its main location, or a block of its index table to its
// main copy and its stable mirror. FileService::WriteLogged issues it.
struct LoggedWrite {
  enum class Copies : std::uint8_t {
    kMain,            // a data block
    kAtOnce,          // a one-fragment table: both copies concurrently
    kMainThenMirror,  // a table with indirect blocks: the careful order
  };
  disk::DiskServer* disk = nullptr;
  FragmentIndex first = 0;
  std::uint32_t count = 0;
  std::vector<std::uint8_t> data;
  Copies copies = Copies::kMain;
  std::uint64_t block = 0;  // logical block of a kMain write

  // Whether the write occupies both of `disk`'s devices, not only the main
  // one, and whether it must run alone, after every write beside it, in
  // the order TakeLoggedWrites returned (a careful table may span disks).
  bool both_devices() const { return copies != Copies::kMain; }
  bool in_order() const { return copies == Copies::kMainThenMirror; }
};

// Everything a file's logged state owes the disks, in the order to write
// it, and the blocks its remaps replaced, to free once it has landed.
struct LoggedWrites {
  FileId file{};
  std::uint64_t epoch = 0;  // of the table image these writes carry
  std::vector<LoggedWrite> writes;
  std::vector<BlockDescriptor> frees;
  bool empty() const { return writes.empty() && frees.empty(); }
};

// What the transaction service's intention log claims of basic puts,
// read without the log's mutex. A recovery redoes what the log holds, so a
// basic put checkpoints the log first when it touches a file a record
// names, or allocates, frees or persists a bitmap while the log holds a
// commit that remapped, deleted or grew a file: a replaced block or a
// deleted FileId must not pass to another file, nor a persisted bitmap
// hold a growth the redo makes elsewhere. A claim of generation g stands
// until a reset to a later generation has landed.
class LogClaims {
 public:
  // `checkpoint` fails when it could not reset the log.
  explicit LogClaims(std::function<Status()> checkpoint)
      : checkpoint_(std::move(checkpoint)) {}

  // Before a put that touches `file` (FileId{}: no existing file;
  // nullopt: every file) and, with `bitmaps`, a bitmap: checkpoints when a
  // claim covers it; fails, the put refused, when the log was not reset.
  Status BeforePut(std::optional<FileId> file, bool bitmaps) {
    std::unique_lock lk(mu_);
    const bool covered = (bitmaps && bitmaps_) ||
                         (file ? named_.contains(*file) : !named_.empty());
    lk.unlock();
    return covered ? checkpoint_() : OkStatus();
  }

  // The log's side: records of `generation` name `file` (FileId{}: none)
  // and, with `bitmaps`, change bitmaps.
  void Claim(FileId file, bool bitmaps, std::uint32_t generation) {
    std::scoped_lock lk(mu_);
    if (file != FileId{}) named_[file] = generation;
    if (bitmaps) bitmaps_ = generation;
  }
  // A reset to `generation` has landed: the claims of earlier ones end.
  void ResetLanded(std::uint32_t generation) {
    std::scoped_lock lk(mu_);
    std::erase_if(named_, [generation](const auto& n) {
      return n.second < generation;
    });
    if (bitmaps_ < generation) bitmaps_.reset();
  }

 private:
  std::function<Status()> checkpoint_;
  mutable std::mutex mu_;
  std::unordered_map<FileId, std::uint32_t> named_;  // to its generation
  std::optional<std::uint32_t> bitmaps_;
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
  // them back in. A table whose changes the intention log owns stays
  // cached until the log has stored it.
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
  // dirty in memory and ride the next table store. What a LoggedApply
  // changed is the intention log's to write, and Sync leaves it.
  Status Sync(FileId id);
  // Sync plus the soft attributes: also stores the table when only access
  // counts or read times changed, parked ones of a closed file included.
  Status Flush(FileId id);
  // Flush of every file, logged state included, best effort per file: what
  // cannot be written stays in memory (a table waits for its own data) and
  // the first error is returned. While the intention log names any file it
  // checkpoints first (AwaitLog), and a refusal writes nothing. The
  // facility's epoch fence runs it before purging a shard.
  Status FlushAll();

  // The intention log's claims on this service's puts; null: no log.
  void SetLogClaims(LogClaims* claims) { claims_ = claims; }
  // LogClaims::BeforePut, asked at the entry of each basic operation that
  // changes a file or a bitmap (a later sync or eviction writes what such
  // an operation changed), and by a caller about to run puts as lanes, for
  // each file before the section opens. A LoggedApply asks nothing.
  Status AwaitLog(std::optional<FileId> file, bool bitmaps) {
    return claims_ == nullptr || logging_ > 0
               ? OkStatus()
               : claims_->BeforePut(file, bitmaps);
  }

  // --- Block-level interface for the transaction service -------------------

  // Number of logical 8 KiB blocks currently mapped.
  Result<std::uint64_t> BlockCount(FileId id);

  // Reads/writes one logical block (transaction page). Write goes through
  // the cache with the file's policy.
  Status ReadBlock(FileId id, std::uint64_t block_index,
                   std::span<std::uint8_t> out);
  Status WriteBlock(FileId id, std::uint64_t block_index,
                    std::span<const std::uint8_t> in);

  // Physical location of a logical block (for WAL/shadow decisions).
  Result<BlockLocation> LocateBlock(FileId id, std::uint64_t block_index);

  // True iff the file's data blocks form one contiguous run — the paper's
  // criterion for choosing WAL over shadow paging at commit (§6.7).
  Result<bool> IsContiguous(FileId id);

  // Shadow-page commit primitive: rebinds each listed logical block to its
  // freshly written physical block and frees the old one, then stores the
  // index table once for all of them. Under a LoggedApply (a commit's
  // redo) the table is only marked logged and the old blocks are freed
  // once it has landed (TakeLoggedWrites). A rebind the table already
  // carries only drops the block's cached copy.
  Status ReplaceBlocks(FileId id, const std::vector<BlockRebind>& rebinds);
  // Recovery after a committed remap: when the main copy of `id`'s index
  // table parses and differs from the mirror, stores the table to both, so
  // a later fall-back to the mirror never maps a block the remap replaced.
  Status ReconcileTableCopies(FileId id);
  // Caches `image`, which logical block `block_index` already holds on
  // disk, as a clean block. A shadow commit hands over the pages it
  // remapped this way, so a read after the commit costs no disk reference.
  Status CacheDurableBlock(FileId id, std::uint64_t block_index,
                           std::span<const std::uint8_t> image);

  // --- Logged apply: the intention log owns the write-back --------------------

  // While one is alive, the service applies changes to its caches only (a
  // transaction's redo after its commit force): written blocks and changed
  // tables are marked logged instead of written, and a remap keeps the
  // block it replaces allocated. Sync and Close write nothing a log owns;
  // TakeLoggedWrites hands the state over. Scopes nest.
  class LoggedApply {
   public:
    explicit LoggedApply(FileService& service) : service_(service) {
      ++service_.logging_;
    }
    ~LoggedApply() { --service_.logging_; }
    LoggedApply(const LoggedApply&) = delete;
    LoggedApply& operator=(const LoggedApply&) = delete;

   private:
    FileService& service_;
  };

  // The writes `id`'s logged state owes: each logged block, then, if its
  // table is logged, the table's indirect blocks and fragment (allocating
  // or releasing indirect blocks as the runs need). The log's record redoes
  // the table store, so the old table need not survive it: a one-fragment
  // table goes to both copies at once, since a fragment tears whole and
  // recovery re-stores a stale copy, while a table with indirect blocks
  // keeps main then mirror, since a 4-fragment block can tear midway. The
  // state stays logged (cached, never evicted unwritten, skipped by Sync)
  // until LoggedWritesLanded reports these writes done.
  Result<LoggedWrites> TakeLoggedWrites(FileId id);
  // Issues one of those writes, write-through, as its copies require. Its
  // main copy updates only tracks the disk's track cache already holds:
  // the service's block pool caches what it lands.
  static Status WriteLogged(const LoggedWrite& w);
  // `writes` reached the disks: a block still holding the image written
  // and a table unchanged since the capture stop being logged.
  void LoggedWritesLanded(const LoggedWrites& writes);

  // Allocates `count` free blocks without linking them into any file —
  // shadow-page staging space for pages homed on `id`'s disk: one
  // contiguous run there when one is free, else one block per page, on
  // that disk or any disk with room. On failure none stays allocated.
  Result<std::vector<disk::DiskRegistry::Placement>> AllocateShadowBlocks(
      FileId id, std::uint32_t count);

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
  // True iff a read of blocks [first, end) would reach no disk: each block
  // sits in the block pool, or the file's table is cached and all of the
  // block's fragments sit in its disk's track cache (loading the table is
  // itself a disk reference). Changes no recency order, loads nothing and
  // counts nothing. An empty range is not resident, nor, when the table is
  // cached, one past the end of the file or of its mapped blocks.
  bool Resident(FileId id, std::uint64_t first, std::uint64_t end) const;

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
    // Hard changes a logged apply made: the intention log stores them (see
    // TakeLoggedWrites), so Sync and Close leave them alone and Close keeps
    // the table cached. `logged_epoch` counts them.
    bool table_logged = false;
    std::uint64_t logged_epoch = 0;
    // Blocks a logged remap replaced, freed once its table has landed.
    std::vector<BlockDescriptor> logged_frees;
    // Disks whose in-memory bitmap holds an allocation this table maps
    // (a growth, an indirect block) that their stored bitmap may lack: a
    // careful table store persists them first.
    std::vector<DiskId> unpersisted;
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
    // blocks a block-level write (WriteBlock, ReplaceBlocks) defined before
    // the size grew over them, as a transaction's page apply does.
    std::set<std::uint64_t> written_past_size;
  };

  struct CacheEntry {
    std::vector<std::uint8_t> data;  // kBlockSize bytes
    bool dirty = false;
    bool prefetched = false;  // brought in by read-ahead, not yet read
    // Written by a logged apply and not yet on its disk: the intention log
    // owns the write-back, so Sync skips it and eviction prefers others.
    bool logged = false;
    // The insertion's sequence number in `unread_`, until a read hits the
    // entry (then 0).
    std::uint64_t unread_seq = 0;
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

  // Records a hard change to `of`'s table: logged under a LoggedApply,
  // dirty otherwise.
  void TableChanged(OpenFile& of);

  // Drops every cache entry of `id` at logical block >= `from`.
  void PurgeCache(FileId id, std::uint64_t from);
  // Drops one cache entry, if cached.
  void Drop(const BlockKey& key);
  // True when a block of `id` waits in the cache for its disk (dirty or
  // logged).
  bool HoldsDirty(FileId id) const;
  // How a table store writes each block's main copy and stable mirror.
  // (A store the intention log redoes is TakeLoggedWrites' to issue.)
  enum class TableStore : std::uint8_t {
    // Main, then mirror: a crash leaves one intact copy of the old table,
    // the only way back where no log record redoes the store (close/Sync,
    // Resize, SetLockLevel, the snapshot journal's apply).
    kCareful,
    // The locations were just allocated and hold nothing live (Create).
    kFresh,
  };
  // Persists the table of `id` (fragment + indirect blocks) to original and
  // stable storage; under a LoggedApply it only marks the table logged.
  Status StoreTable(FileId id, OpenFile& of,
                    TableStore how = TableStore::kCareful);
  // Allocates the indirect blocks `of`'s runs need on top of those it has,
  // or moves the ones it no longer needs to `released`.
  Status ProvisionIndirect(FileId id, OpenFile& of,
                           std::vector<BlockDescriptor>& released);
  // The table fragment's image.
  std::vector<std::uint8_t> SerializeFragment(const OpenFile& of) const;
  // Records that `disk`'s stored bitmap may lack an allocation `of` maps.
  static void NoteUnpersisted(OpenFile& of, DiskId disk);

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
  // Makes room for one block: drops the first entry of `unread_` that is
  // clean, still unread and track-cached, else the least recent clean
  // entry, else writes the least recent entry back and drops it.
  Status EvictOne();
  // True iff `id`'s table is cached and all of `block`'s fragments sit in
  // its disk's track cache, so reading the block reaches no platter.
  bool TrackCachedBlock(FileId id, std::uint64_t block) const;
  Status WritebackEntry(const BlockKey& key, CacheEntry& entry);
  // Accounting hook for an entry leaving the cache (eviction, purge,
  // crash): an unread prefetched block counts as wasted read-ahead.
  void NoteDropped(const CacheEntry& entry) {
    if (entry.prefetched) ++stats_.readahead_wasted;
  }
  // Writes back every dirty cached block (of one file when `only` is
  // non-null, of all files otherwise, logged blocks included) as per-disk
  // vectored batches issued under one overlapped section.
  Status WritebackDirty(const FileId* only);

  // One block bound for the disk service.
  struct PendingPut {
    disk::DiskServer* server;
    FragmentIndex frag;
    std::span<const std::uint8_t> data;
    CacheEntry* entry = nullptr;  // made clean once the block's disk took it
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

  WritePolicy PolicyFor(const OpenFile& of) const;

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
  // Pool insertions in order, oldest first: the eviction candidates. An
  // item whose entry has left the pool, came back under a later sequence
  // number or was read since is stale; EvictOne pops each item once.
  struct Inserted {
    BlockKey key;
    std::uint64_t seq = 0;
  };
  std::deque<Inserted> unread_;
  std::uint64_t insert_seq_ = 0;
  // Mutation counters behind Version(). Entries outlive Delete on purpose
  // (see Version() comment); absent entries read as version 1.
  std::unordered_map<FileId, std::uint64_t> versions_;
  FileServiceStats stats_;
  obs::Observability* obs_ = nullptr;
  int logging_ = 0;  // open LoggedApply scopes
  LogClaims* claims_ = nullptr;
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
