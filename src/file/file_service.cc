#include "file/file_service.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>
#include <optional>
#include <utility>

#include "sim/parallel.h"

namespace rhodos::file {

using disk::DiskServer;
using disk::ReadSource;
using disk::StableMode;
using disk::WriteSync;

// Fragments of each shard's snapshot journal slot at the tail of disk 0,
// claimed only on first snapshot/clone use.
constexpr std::uint64_t kSnapshotSlotFragments = 256;
// Consecutive sequential reads that arm read-ahead.
constexpr std::uint32_t kReadAheadTrigger = 2;

FileService::FileService(disk::DiskRegistry* disks, SimClock* clock,
                         FileServiceConfig config)
    : disks_(disks),
      clock_(clock),
      config_(config),
      snap_journal_(disks, kSnapshotSlotFragments, config.shard) {}

WritePolicy FileService::PolicyFor(const OpenFile& of) const {
  // "The delayed-write together with write-through policies are adapted to
  // save modifications made to data cached by the file service" (§5): basic
  // files follow the configured delayed policy; transaction files write
  // through so commits reach the platter when the transaction says so.
  return of.table.attributes().service_type == ServiceType::kTransaction
             ? WritePolicy::kWriteThrough
             : config_.basic_write_policy;
}

// --- Index-table load/store ---------------------------------------------------

Result<FileService::OpenFile*> FileService::LoadTable(FileId id) {
  if (auto it = open_files_.find(id); it != open_files_.end()) {
    return &it->second;
  }
  RHODOS_ASSIGN_OR_RETURN(DiskServer * server, disks_->Get(FileDisk(id)));
  std::vector<std::uint8_t> fragment(kFragmentSize);
  RHODOS_RETURN_IF_ERROR(
      server->GetBlock(FileFitFragment(id), 1, fragment));
  auto parsed = ParseFitFragment(fragment);
  if (!parsed.ok()) {
    // The main copy is damaged; the paper keeps every index table on stable
    // storage, so fall back to the mirror.
    RHODOS_RETURN_IF_ERROR(server->GetBlock(FileFitFragment(id), 1, fragment,
                                            ReadSource::kStable));
    parsed = ParseFitFragment(fragment);
    if (!parsed.ok()) return Error{parsed.error()};
  }
  // Pull in the indirect runs (one get_block per indirect block).
  std::vector<std::uint8_t> block(kBlockSize);
  for (const auto& ib : parsed->indirect_blocks) {
    RHODOS_ASSIGN_OR_RETURN(DiskServer * ib_server, disks_->Get(ib.disk));
    RHODOS_RETURN_IF_ERROR(
        ib_server->GetBlock(ib.first_fragment, kFragmentsPerBlock, block));
    RHODOS_RETURN_IF_ERROR(parsed->table.ParseIndirectBlock(block));
  }
  OpenFile of;
  of.table = std::move(parsed->table);
  of.indirect_blocks = std::move(parsed->indirect_blocks);
  // ref_count counts this service's open handles, and a table that had to
  // be loaded has none. The stored value is whatever the last store saw,
  // and a close that stores nothing never corrects it.
  of.table.attributes().ref_count = 0;
  if (auto p = parked_attrs_.find(id); p != parked_attrs_.end()) {
    of.table.attributes().access_count = p->second.access_count;
    of.table.attributes().last_read_time = p->second.last_read_time;
    of.attrs_dirty = true;
    parked_attrs_.erase(p);
  }
  ++stats_.fit_loads;
  auto [it, inserted] = open_files_.emplace(id, std::move(of));
  (void)inserted;
  return &it->second;
}

Status FileService::ProvisionIndirect(FileId id, OpenFile& of,
                                      std::vector<BlockDescriptor>& released) {
  RHODOS_ASSIGN_OR_RETURN(DiskServer * server, disks_->Get(FileDisk(id)));
  const std::size_t needed = of.table.IndirectBlockCount();
  if (needed > kIndirectRefs) {
    return {ErrorCode::kFileTooLarge,
            "file needs " + std::to_string(needed) +
                " indirect blocks; max " + std::to_string(kIndirectRefs)};
  }
  while (of.indirect_blocks.size() < needed) {
    auto frag = server->AllocateBlocks(1);
    if (frag.ok()) {
      of.indirect_blocks.push_back(
          BlockDescriptor{server->id(), *frag, 1});
    } else {
      RHODOS_ASSIGN_OR_RETURN(auto placement,
                              disks_->Allocate(kFragmentsPerBlock));
      of.indirect_blocks.push_back(
          BlockDescriptor{placement.disk, placement.first, 1});
    }
    NoteUnpersisted(of, of.indirect_blocks.back().disk);
  }
  while (of.indirect_blocks.size() > needed) {
    released.push_back(of.indirect_blocks.back());
    of.indirect_blocks.pop_back();
  }
  return OkStatus();
}

std::vector<std::uint8_t> FileService::SerializeFragment(
    const OpenFile& of) const {
  Serializer ser;
  of.table.SerializeFragment(ser, of.indirect_blocks);
  std::vector<std::uint8_t> fragment(kFragmentSize, 0);
  std::memcpy(fragment.data(), ser.buffer().data(), ser.size());
  return fragment;
}

void FileService::NoteUnpersisted(OpenFile& of, DiskId disk) {
  if (std::find(of.unpersisted.begin(), of.unpersisted.end(), disk) ==
      of.unpersisted.end()) {
    of.unpersisted.push_back(disk);
  }
}

void FileService::TableChanged(OpenFile& of) {
  if (logging_ > 0) {
    of.table_logged = true;
    ++of.logged_epoch;
  } else {
    of.table_dirty = true;
  }
}

Status FileService::StoreTable(FileId id, OpenFile& of, TableStore how) {
  if (logging_ > 0) {
    // The intention log stores it (TakeLoggedWrites).
    of.table_logged = true;
    ++of.logged_epoch;
    return OkStatus();
  }
  RHODOS_ASSIGN_OR_RETURN(DiskServer * server, disks_->Get(FileDisk(id)));

  // Provision (or release) indirect blocks to match the run count.
  std::vector<BlockDescriptor> released;
  RHODOS_RETURN_IF_ERROR(ProvisionIndirect(id, of, released));
  for (const BlockDescriptor& ib : released) {
    RHODOS_RETURN_IF_ERROR(
        disks_->Free(ib.disk, ib.first_fragment, kFragmentsPerBlock));
  }
  const std::size_t needed = of.indirect_blocks.size();
  // A careful store never maps a block that its disk's stored bitmap may
  // call free: nothing else would claim it after a crash.
  if (how == TableStore::kCareful) {
    for (const DiskId disk : of.unpersisted) {
      RHODOS_ASSIGN_OR_RETURN(DiskServer * holder, disks_->Get(disk));
      RHODOS_RETURN_IF_ERROR(
          holder->PersistMetadata(WriteSync::kAsynchronous));
    }
    of.unpersisted.clear();
  }

  // Both copies of each block of a fresh table go out at once: no old copy
  // must survive a crash. Every other store keeps the careful
  // main-then-mirror order.
  const bool at_once = how == TableStore::kFresh;
  auto put = [at_once](DiskServer* to, FragmentIndex first,
                       std::uint32_t count,
                       std::span<const std::uint8_t> data) {
    return at_once ? to->PutFreshBlock(first, count, data)
                   : to->PutBlock(first, count, data,
                                  StableMode::kOriginalAndStable,
                                  WriteSync::kSynchronous);
  };
  // Indirect blocks first, then the table fragment that references them —
  // so a crash between the two never leaves a fragment naming an unwritten
  // block. An indirect block is rewritten in place, so the old fragment may
  // then meet its new runs: nothing compares the two run counts.
  for (std::size_t i = 0; i < needed; ++i) {
    const std::vector<std::uint8_t> block = of.table.SerializeIndirectBlock(i);
    RHODOS_ASSIGN_OR_RETURN(DiskServer * ib_server,
                            disks_->Get(of.indirect_blocks[i].disk));
    RHODOS_RETURN_IF_ERROR(put(ib_server, of.indirect_blocks[i].first_fragment,
                               kFragmentsPerBlock, block));
  }

  RHODOS_RETURN_IF_ERROR(
      put(server, FileFitFragment(id), 1, SerializeFragment(of)));
  of.table_dirty = false;
  of.table_logged = false;
  of.attrs_dirty = false;
  ++stats_.fit_stores;
  return OkStatus();
}

void FileService::ForgetTables(const FileId* only) {
  if (only == nullptr) {
    open_files_.clear();
    parked_attrs_.clear();
    return;
  }
  open_files_.erase(*only);
  parked_attrs_.erase(*only);
}

Status FileService::StoreParked(FileId id) {
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  RHODOS_RETURN_IF_ERROR(StoreTable(id, *of));
  // Closed before, closed after: Flush leaves the table cache as it found
  // it (a failed store above keeps the entry, and its values, loaded).
  open_files_.erase(id);
  return OkStatus();
}

// --- create / delete / open / close -------------------------------------------

Result<FileId> FileService::Create(ServiceType type,
                                   std::uint64_t size_hint) {
  RHODOS_RETURN_IF_ERROR(AwaitLog(FileId{}, /*bitmaps=*/true));
  const std::uint64_t hint_blocks = BlocksCovering(size_hint);
  // "The file index table and at least the first data block are always
  // contiguous thus eliminating the seek time to retrieve the first data
  // block" (§5): allocate table fragment + initial data in ONE run. A hint
  // past what one allocation can name goes straight to the fallback.
  const std::uint64_t want = 1 + hint_blocks * kFragmentsPerBlock;
  auto placement =
      want <= std::numeric_limits<std::uint32_t>::max()
          ? disks_->Allocate(static_cast<std::uint32_t>(want))
          : Result<disk::DiskRegistry::Placement>{
                Error{ErrorCode::kNoSpace, "size hint exceeds a disk"}};
  std::uint64_t preallocated_blocks = hint_blocks;
  if (!placement.ok() && want > 1) {
    // Could not get table + hint contiguously; take just the table fragment
    // (plus first block if possible) and let Grow place the rest.
    placement = disks_->Allocate(1 + kFragmentsPerBlock);
    preallocated_blocks = placement.ok() ? 1 : 0;
    if (!placement.ok()) placement = disks_->Allocate(1);
  }
  if (!placement.ok()) return Error{placement.error()};

  const FileId id = MakeFileId(placement->disk, placement->first);
  // A reused FileId starts from the table built here, not from whatever a
  // deleted predecessor left parked. The table is cached before any growth
  // so an eviction of its zero-fill can locate the blocks.
  ForgetTables(&id);
  OpenFile& of = open_files_[id];
  const Status built = [&]() -> Status {
    of.table.attributes().service_type = type;
    of.table.attributes().created_time = clock_ ? clock_->Now() : 0;
    if (preallocated_blocks > 0) {
      RHODOS_RETURN_IF_ERROR(of.table.AppendRun(
          placement->disk, placement->first + 1,
          static_cast<std::uint32_t>(preallocated_blocks)));
    }
    if (preallocated_blocks < hint_blocks) {
      RHODOS_RETURN_IF_ERROR(
          Grow(id, of, hint_blocks - preallocated_blocks));
      // The zero-fill lands before the table that maps it, and Create
      // leaves no dirty block behind: the shard that creates a file need
      // not be the one that serves it, and a later flush or eviction here
      // would write zeros over whatever the owner put there meanwhile.
      RHODOS_RETURN_IF_ERROR(WritebackDirty(&id));
    }
    // The table fragment and any indirect blocks were allocated just now.
    return StoreTable(id, of, TableStore::kFresh);
  }();
  if (!built.ok()) {
    // The id was never handed out: give its space back, drop its cache.
    PurgeCache(id, 0);
    for (const auto& run : of.table.runs()) {
      (void)disks_->Free(run.disk, run.first_fragment,
                         run.contiguous_count * kFragmentsPerBlock);
    }
    for (const auto& ib : of.indirect_blocks) {
      (void)disks_->Free(ib.disk, ib.first_fragment, kFragmentsPerBlock);
    }
    (void)disks_->Free(FileDisk(id), FileFitFragment(id), 1);
    ForgetTables(&id);
    return Error{built.error()};
  }
  RHODOS_ASSIGN_OR_RETURN(DiskServer * server, disks_->Get(placement->disk));
  RHODOS_RETURN_IF_ERROR(server->PersistMetadata(WriteSync::kAsynchronous));
  std::erase(of.unpersisted, placement->disk);
  return id;
}

Status FileService::Delete(FileId id) {
  RHODOS_RETURN_IF_ERROR(AwaitLog(id, /*bitmaps=*/true));
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  if (of->table.HasSharedRuns()) {
    // Some of this file's blocks may belong to snapshots or clones too: a
    // block is freed exactly when its share count reaches zero, and share
    // counts only change under the snapshot journal. One journaled release
    // makes the scrub + decrements + frees a single all-or-nothing unit.
    RHODOS_RETURN_IF_ERROR(snap_journal_.Ensure());
    SnapOp op;
    op.kind = SnapOpKind::kRelease;
    op.file = id;
    op.scrub_fit = true;
    for (const auto& run : of->table.runs()) BuildRelease(run, op);
    for (const auto& ib : of->indirect_blocks) {
      op.frees.push_back(
          SnapFree{ib.disk, ib.first_fragment, kFragmentsPerBlock});
    }
    op.frees.push_back(SnapFree{FileDisk(id), FileFitFragment(id), 1});
    RHODOS_ASSIGN_OR_RETURN(const std::uint64_t seq, snap_journal_.LogOp(op));
    RHODOS_RETURN_IF_ERROR(ApplySnapOp(op));
    RHODOS_RETURN_IF_ERROR(snap_journal_.LogDone(seq));
    ++stats_.shared_releases;
    return OkStatus();
  }
  // Scrub the index table (both copies) so the stale bytes can never be
  // parsed back into a live file after the fragment is reused.
  {
    RHODOS_ASSIGN_OR_RETURN(DiskServer * server, disks_->Get(FileDisk(id)));
    const std::vector<std::uint8_t> zeros(kFragmentSize, 0);
    RHODOS_RETURN_IF_ERROR(server->PutBlock(
        FileFitFragment(id), 1, zeros, StableMode::kOriginalAndStable,
        WriteSync::kSynchronous));
  }
  // Free data runs, indirect blocks, then the table fragment.
  for (const auto& run : of->table.runs()) {
    RHODOS_RETURN_IF_ERROR(disks_->Free(
        run.disk, run.first_fragment,
        static_cast<std::uint32_t>(run.contiguous_count) *
            kFragmentsPerBlock));
  }
  for (const auto& ib : of->indirect_blocks) {
    RHODOS_RETURN_IF_ERROR(
        disks_->Free(ib.disk, ib.first_fragment, kFragmentsPerBlock));
  }
  RHODOS_RETURN_IF_ERROR(disks_->Free(FileDisk(id), FileFitFragment(id), 1));

  // Purge the block cache of this file's entries.
  PurgeCache(id, 0);
  ForgetTables(&id);
  BumpVersion(id);
  return OkStatus();
}

Status FileService::Open(FileId id) {
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  ++of->pins;
  ++of->table.attributes().ref_count;
  return OkStatus();
}

Status FileService::Close(FileId id) {
  auto it = open_files_.find(id);
  if (it == open_files_.end()) {
    return {ErrorCode::kBadDescriptor, "close of file that is not open"};
  }
  OpenFile& of = it->second;
  if (of.pins > 0) --of.pins;
  if (of.table.attributes().ref_count > 0) --of.table.attributes().ref_count;
  // Delayed writes reach the platter at close, and so do hard table
  // changes. A table store for soft attributes alone would cost a
  // synchronous write to the main copy and the stable mirror per close.
  RHODOS_RETURN_IF_ERROR(Sync(id));
  // A logged table is newer than its stored copies: it stays cached until
  // the intention log has stored it.
  if (of.pins > 0 || of.table_logged) return OkStatus();
  if (of.attrs_dirty) {
    parked_attrs_[id] = ParkedAttrs{of.table.attributes().access_count,
                                    of.table.attributes().last_read_time};
  }
  open_files_.erase(id);
  return OkStatus();
}

// --- cache plumbing ------------------------------------------------------------

Status FileService::WritebackEntry(const BlockKey& key, CacheEntry& entry) {
  if (!entry.dirty && !entry.logged) return OkStatus();
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(key.file));
  RHODOS_ASSIGN_OR_RETURN(BlockLocation loc,
                          of->table.Locate(key.block));
  RHODOS_ASSIGN_OR_RETURN(DiskServer * server, disks_->Get(loc.disk));
  RHODOS_RETURN_IF_ERROR(server->PutBlock(loc.first_fragment,
                                          kFragmentsPerBlock, entry.data));
  entry.dirty = false;
  entry.logged = false;
  return OkStatus();
}

Status FileService::EvictOne() {
  // Prefer the least-recently-used clean entry; if all are dirty or logged,
  // write the LRU one back first.
  const BlockKey* victim = cache_.Victim([](const BlockKey&,
                                            const CacheEntry& e) {
    return !e.dirty && !e.logged;
  });
  if (victim == nullptr) {
    return {ErrorCode::kInternal, "evict from empty cache"};
  }
  const BlockKey key = *victim;
  CacheEntry& entry = *cache_.Peek(key);
  RHODOS_RETURN_IF_ERROR(WritebackEntry(key, entry));
  NoteDropped(entry);
  cache_.Erase(key);
  return OkStatus();
}

Result<FileService::CacheEntry*> FileService::CacheInsert(
    FileId id, std::uint64_t block, std::span<const std::uint8_t> data,
    bool dirty) {
  // Under a LoggedApply a written block is the intention log's to write.
  const bool logged = dirty && logging_ > 0;
  if (CacheEntry* existing = cache_.Touch(BlockKey{id, block})) {
    std::memcpy(existing->data.data(), data.data(), kBlockSize);
    existing->dirty = existing->dirty || (dirty && !logged);
    existing->logged = existing->logged || logged;
    if (dirty && existing->prefetched) {
      // Overwritten before ever being read: the prefetch bought nothing.
      existing->prefetched = false;
      ++stats_.readahead_wasted;
    }
    return existing;
  }
  const std::size_t capacity =
      std::max<std::size_t>(config_.block_pool_capacity, 1);
  while (cache_.size() >= capacity) RHODOS_RETURN_IF_ERROR(EvictOne());
  return &cache_.Insert(
      BlockKey{id, block},
      CacheEntry{std::vector<std::uint8_t>(data.begin(),
                                           data.begin() + kBlockSize),
                 dirty && !logged, /*prefetched=*/false, logged});
}

// --- read path -------------------------------------------------------------------

Status FileService::ReadBlocks(FileId id, OpenFile& of, std::uint64_t first,
                               std::uint64_t count,
                               std::span<std::uint8_t> out) {
  // Pass 1: serve cache hits and collect the physically contiguous uncached
  // spans — the per-descriptor count makes each span a single disk
  // reference (§5).
  struct UncachedSpan {
    DiskServer* server;
    FragmentIndex frag;
    std::uint64_t block;    // first logical block
    std::uint64_t blocks;   // span length
    std::size_t out_off;    // byte offset in `out`
  };
  std::vector<UncachedSpan> spans;
  std::uint64_t b = first;
  while (b < first + count) {
    std::uint8_t* dst = out.data() + (b - first) * kBlockSize;
    if (CacheEntry* hit = cache_.Touch(BlockKey{id, b})) {
      std::memcpy(dst, hit->data.data(), kBlockSize);
      ++stats_.cache_hits;
      if (hit->prefetched) {
        hit->prefetched = false;
        ++stats_.readahead_hits;
      }
      ++b;
      continue;
    }
    RHODOS_ASSIGN_OR_RETURN(BlockLocation loc, of.table.Locate(b));
    std::uint64_t span_blocks = 1;
    while (span_blocks < loc.contiguous_blocks &&
           b + span_blocks < first + count &&
           !cache_.Contains(BlockKey{id, b + span_blocks})) {
      ++span_blocks;
    }
    stats_.cache_misses += span_blocks;
    RHODOS_ASSIGN_OR_RETURN(DiskServer * server, disks_->Get(loc.disk));
    spans.push_back(UncachedSpan{server, loc.first_fragment, b, span_blocks,
                                 (b - first) * kBlockSize});
    b += span_blocks;
  }
  if (spans.empty()) return OkStatus();

  // Pass 2: send the I/O as one submission per disk; when a striped read
  // touches several disks the submissions overlap (lane per spindle — E10).
  sim::PerDeviceFanOut<DiskServer*, disk::ReadRun> per_disk;
  for (const UncachedSpan& s : spans) {
    per_disk.Add(s.server,
                 disk::ReadRun{s.frag, static_cast<std::uint32_t>(
                                           s.blocks * kFragmentsPerBlock),
                               out.subspan(s.out_off, s.blocks * kBlockSize)});
  }
  RHODOS_RETURN_IF_ERROR(per_disk.Run(
      clock_, [](DiskServer* server, std::vector<disk::ReadRun>& runs) {
        return server->GetBlocksVec(runs);
      }));

  // Pass 3: install everything that came off the platters into the cache.
  for (const UncachedSpan& s : spans) {
    for (std::uint64_t i = 0; i < s.blocks; ++i) {
      RHODOS_RETURN_IF_ERROR(CacheInsert(
          id, s.block + i,
          {out.data() + s.out_off + i * kBlockSize, kBlockSize},
          /*dirty=*/false));
    }
  }
  return OkStatus();
}

bool FileService::Resident(FileId id, std::uint64_t first,
                           std::uint64_t end) const {
  if (first >= end) return false;
  const auto it = open_files_.find(id);
  const OpenFile* of = it == open_files_.end() ? nullptr : &it->second;
  if (of != nullptr &&
      end > std::min(of->table.BlockCount(),
                     BlocksCovering(of->table.attributes().size))) {
    return false;
  }
  for (std::uint64_t b = first; b < end; ++b) {
    if (cache_.Contains(BlockKey{id, b})) continue;
    if (of == nullptr) return false;
    auto loc = of->table.Locate(b);
    if (!loc.ok()) return false;
    auto server = disks_->Get(loc->disk);
    if (!server.ok() ||
        !(*server)->TrackCached(loc->first_fragment, kFragmentsPerBlock)) {
      return false;
    }
  }
  return true;
}

Result<std::uint64_t> FileService::Read(FileId id, std::uint64_t offset,
                                        std::span<std::uint8_t> out) {
  obs::SpanScope span(obs::TracerOf(obs_), "file", "read");
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  ++stats_.reads;
  const std::uint64_t size = of->table.attributes().size;
  if (offset >= size) return std::uint64_t{0};
  const std::uint64_t len = std::min<std::uint64_t>(out.size(), size - offset);
  if (len == 0) return std::uint64_t{0};

  const std::uint64_t first_block = offset / kBlockSize;
  const std::uint64_t last_block = (offset + len - 1) / kBlockSize;
  const std::uint64_t block_count = last_block - first_block + 1;
  const std::uint64_t head_misalign = offset % kBlockSize;

  if (head_misalign == 0) {
    // Block-aligned: decode whole blocks straight into the caller's span —
    // no staging copy. Only a partial tail block goes through scratch.
    const std::uint64_t whole = len / kBlockSize;
    if (whole > 0) {
      RHODOS_RETURN_IF_ERROR(ReadBlocks(id, *of, first_block, whole,
                                        out.subspan(0, whole * kBlockSize)));
    }
    const std::uint64_t tail = len - whole * kBlockSize;
    if (tail > 0) {
      std::vector<std::uint8_t> scratch(kBlockSize);
      RHODOS_RETURN_IF_ERROR(
          ReadBlocks(id, *of, first_block + whole, 1, scratch));
      std::memcpy(out.data() + whole * kBlockSize, scratch.data(), tail);
    }
  } else {
    // Misaligned head: read whole blocks into scratch, copy the span out.
    std::vector<std::uint8_t> scratch(block_count * kBlockSize);
    RHODOS_RETURN_IF_ERROR(
        ReadBlocks(id, *of, first_block, block_count, scratch));
    std::memcpy(out.data(), scratch.data() + head_misalign, len);
  }

  // Sequential-pattern detector: a read that picks up exactly where the
  // previous one ended extends the streak; any seek cancels it. A long
  // enough streak arms speculative read-ahead past the just-read range.
  if (config_.readahead_blocks > 0) {
    of->sequential_streak =
        offset == of->next_expected_offset ? of->sequential_streak + 1 : 1;
    of->next_expected_offset = offset + len;
    if (of->sequential_streak >= kReadAheadTrigger) {
      // Prefetch failures must not fail the read that triggered them.
      Status ra = ReadAhead(id, *of, last_block + 1);
      (void)ra;
    }
  }

  of->table.attributes().last_read_time = clock_ ? clock_->Now() : 0;
  of->table.attributes().access_count += 1;
  of->attrs_dirty = true;
  stats_.bytes_read += len;
  return len;
}

Status FileService::ReadAhead(FileId id, OpenFile& of, std::uint64_t from) {
  const std::uint64_t size_blocks =
      BlocksCovering(of.table.attributes().size);
  const std::uint64_t mapped = std::min(of.table.BlockCount(), size_blocks);
  std::uint64_t limit = std::min<std::uint64_t>(
      mapped, from + config_.readahead_blocks);
  // Skip blocks the cache already holds; stop at the first gap's run.
  std::uint64_t b = from;
  while (b < limit && cache_.Contains(BlockKey{id, b})) ++b;
  if (b >= limit) return OkStatus();
  RHODOS_ASSIGN_OR_RETURN(BlockLocation loc, of.table.Locate(b));
  RHODOS_ASSIGN_OR_RETURN(DiskServer * server, disks_->Get(loc.disk));
  std::uint64_t n = 1;
  auto extendable = [&] {
    return n < loc.contiguous_blocks &&
           !cache_.Contains(BlockKey{id, b + n});
  };
  while (b + n < limit && extendable()) ++n;
  // Track-align the prefetch end: if the run keeps going, sweep to the end
  // of the track the last fragment lands on, so the whole prefetch is one
  // head pass with no partial-track residue.
  const std::uint32_t fpt = server->config().geometry.fragments_per_track;
  while (b + n < mapped && extendable() &&
         (loc.first_fragment + n * kFragmentsPerBlock) % fpt != 0) {
    ++n;
  }
  std::vector<std::uint8_t> scratch(n * kBlockSize);
  RHODOS_RETURN_IF_ERROR(server->GetBlock(
      loc.first_fragment, static_cast<std::uint32_t>(n * kFragmentsPerBlock),
      scratch));
  for (std::uint64_t i = 0; i < n; ++i) {
    RHODOS_ASSIGN_OR_RETURN(
        CacheEntry * entry,
        CacheInsert(id, b + i, {scratch.data() + i * kBlockSize, kBlockSize},
                    /*dirty=*/false));
    entry->prefetched = true;
  }
  stats_.readahead_issued += n;
  return OkStatus();
}

// --- write path --------------------------------------------------------------------

Status FileService::Grow(FileId id, OpenFile& of, std::uint64_t blocks) {
  const std::uint64_t first_new_block = of.table.BlockCount();
  std::uint64_t remaining = blocks;
  while (remaining > 0) {
    auto chunk = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(remaining, config_.extent_blocks));

    // First preference: extend the last extent in place, which keeps the
    // file contiguous and the WAL commit path applicable.
    if (config_.extend_in_place && of.table.RunCount() > 0) {
      const BlockDescriptor& last = of.table.runs().back();
      const FragmentIndex next =
          last.first_fragment +
          static_cast<FragmentIndex>(last.contiguous_count) *
              kFragmentsPerBlock;
      auto server = disks_->Get(last.disk);
      if (server.ok() &&
          (*server)
              ->AllocateSpecific(next, chunk * kFragmentsPerBlock)
              .ok()) {
        NoteUnpersisted(of, last.disk);
        RHODOS_RETURN_IF_ERROR(of.table.AppendRun(last.disk, next, chunk));
        remaining -= chunk;
        continue;
      }
    }

    // Fresh extent, placed by the registry's policy; avoid the disk the
    // previous extent landed on so extents interleave across spindles.
    const DiskId last_disk = of.table.RunCount() > 0
                                 ? of.table.runs().back().disk
                                 : DiskId{~std::uint32_t{0}};
    Result<disk::DiskRegistry::Placement> placement{
        Error{ErrorCode::kNoSpace, ""}};
    while (true) {
      placement = disks_->AllocateAvoiding(chunk * kFragmentsPerBlock,
                                           last_disk);
      if (placement.ok() || chunk == 1) break;
      chunk /= 2;  // fall back to smaller extents as the disks fill up
    }
    if (!placement.ok()) {
      // Out of space: give back every run this growth appended, so the
      // run list and the free pool are as they were.
      for (const BlockDescriptor& run :
           of.table.TruncateBlocks(first_new_block)) {
        (void)disks_->Free(run.disk, run.first_fragment,
                           run.contiguous_count * kFragmentsPerBlock);
      }
      return {ErrorCode::kNoSpace, "disks full while growing file"};
    }
    NoteUnpersisted(of, placement->disk);
    RHODOS_RETURN_IF_ERROR(
        of.table.AppendRun(placement->disk, placement->first, chunk));
    remaining -= chunk;
  }
  TableChanged(of);
  // Extents may reuse freed fragments whose platters still hold old data;
  // a flat file must read back zeros in never-written regions. Zero-fill
  // the new blocks through the cache (dirty, so the zeros reach the disk
  // at the next writeback).
  const std::vector<std::uint8_t> zeros(kBlockSize, 0);
  for (std::uint64_t b = first_new_block; b < first_new_block + blocks;
       ++b) {
    RHODOS_RETURN_IF_ERROR(CacheInsert(id, b, zeros, /*dirty=*/true));
  }
  return OkStatus();
}

Status FileService::ZeroUnwritten(FileId id, OpenFile& of, std::uint64_t end,
                                  std::uint64_t mapped) {
  const std::uint64_t first = BlocksCovering(of.table.attributes().size);
  end = std::min(end, mapped);
  if (first >= end) return OkStatus();
  RHODOS_RETURN_IF_ERROR(EnsureExclusive(id, of, first, end - first));
  const std::vector<std::uint8_t> zeros(kBlockSize, 0);
  for (std::uint64_t b = first; b < end; ++b) {
    if (!of.written_past_size.contains(b)) {
      RHODOS_RETURN_IF_ERROR(CacheInsert(id, b, zeros, /*dirty=*/true));
    }
  }
  of.written_past_size.erase(of.written_past_size.begin(),
                             of.written_past_size.lower_bound(end));
  return OkStatus();
}

Result<std::uint64_t> FileService::Write(FileId id, std::uint64_t offset,
                                         std::span<const std::uint8_t> in) {
  obs::SpanScope span(obs::TracerOf(obs_), "file", "write");
  const std::uint64_t len = in.size();
  if (!RangeFits(offset, len)) {
    return Error{ErrorCode::kInvalidArgument, "write range wraps past 2^64"};
  }
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  if (of->table.attributes().immutable()) {
    return Error{ErrorCode::kPermissionDenied, "write to immutable snapshot"};
  }
  ++stats_.writes;
  if (len == 0) return std::uint64_t{0};

  // Extend the mapping as needed; a gap before the data reads as zeros.
  const std::uint64_t mapped = of->table.BlockCount();
  const std::uint64_t needed_blocks = BlocksCovering(offset + len);
  RHODOS_RETURN_IF_ERROR(
      AwaitLog(id, needed_blocks > mapped || of->table.HasSharedRuns()));
  if (needed_blocks > mapped) {
    RHODOS_RETURN_IF_ERROR(Grow(id, *of, needed_blocks - mapped));
  }
  RHODOS_RETURN_IF_ERROR(ZeroUnwritten(id, *of, offset / kBlockSize, mapped));

  // Copy-on-write: any block about to be overwritten must be exclusively
  // ours BEFORE it can be dirtied — snapshots sharing it keep the old copy.
  RHODOS_RETURN_IF_ERROR(EnsureExclusive(
      id, *of, offset / kBlockSize,
      (offset + len - 1) / kBlockSize - offset / kBlockSize + 1));

  const WritePolicy policy = PolicyFor(*of);
  const bool through = policy == WritePolicy::kWriteThrough && logging_ == 0;
  // Assemble every block first (whole aligned blocks write straight from
  // the caller's span; partial blocks stage through a read-modify-write
  // buffer), then push the write-through set to the disks as per-disk
  // vectored batches so a striped write fans out across spindles.
  std::vector<PendingPut> puts;
  std::deque<std::vector<std::uint8_t>> staged;  // keeps RMW buffers alive
  // A write-through block goes into the pool clean before its put runs, so
  // a refused write must not leave it readable: each touched block keeps
  // the image its disk lacks (a dirty or logged entry), and every other
  // entry goes, leaving the disk's copy to answer.
  std::vector<std::pair<std::uint64_t, std::optional<CacheEntry>>> undo;
  const Status assembled = [&]() -> Status {
    std::uint64_t written = 0;
    while (written < len) {
      const std::uint64_t pos = offset + written;
      const std::uint64_t block = pos / kBlockSize;
      const std::uint64_t in_block = pos % kBlockSize;
      const std::uint64_t n =
          std::min<std::uint64_t>(len - written, kBlockSize - in_block);

      const bool whole_block = in_block == 0 && n == kBlockSize;
      const bool beyond_old_data =
          block * kBlockSize >= of->table.attributes().size;
      std::span<const std::uint8_t> data;
      if (whole_block) {
        data = in.subspan(written, kBlockSize);
      } else {
        staged.emplace_back(kBlockSize);
        std::vector<std::uint8_t>& full = staged.back();
        if (!beyond_old_data) {
          // Partial overwrite of existing data: read-modify-write.
          RHODOS_RETURN_IF_ERROR(ReadBlocks(id, *of, block, 1, full));
        }
        std::memcpy(full.data() + in_block, in.data() + written, n);
        data = full;
      }

      if (through) {
        const CacheEntry* previous = cache_.Peek(BlockKey{id, block});
        undo.emplace_back(block, std::nullopt);
        if (previous != nullptr && (previous->dirty || previous->logged)) {
          undo.back().second = *previous;
        }
      }
      RHODOS_ASSIGN_OR_RETURN(CacheEntry * entry,
                              CacheInsert(id, block, data, /*dirty=*/true));
      if (through) {
        RHODOS_ASSIGN_OR_RETURN(BlockLocation loc, of->table.Locate(block));
        RHODOS_ASSIGN_OR_RETURN(DiskServer * server, disks_->Get(loc.disk));
        puts.push_back(PendingPut{server, loc.first_fragment, data});
        entry->dirty = false;
      }
      written += n;
    }
    return PutPerDisk(std::move(puts));
  }();
  if (!assembled.ok()) {
    for (auto& [block, kept] : undo) {
      const BlockKey key{id, block};
      if (!kept) {
        cache_.Erase(key);
      } else if (CacheEntry* entry = cache_.Peek(key)) {
        *entry = std::move(*kept);
      } else if (auto back = CacheInsert(id, block, kept->data, false);
                 back.ok()) {
        // Evicted by a later block of this write: put the image back.
        **back = std::move(*kept);
      }
    }
    return assembled.error();
  }

  auto& attrs = of->table.attributes();
  attrs.access_count += 1;
  of->attrs_dirty = true;
  if (offset + len > attrs.size) {
    attrs.size = offset + len;
    TableChanged(*of);
  }
  stats_.bytes_written += len;
  BumpVersion(id);
  if (of->table_dirty && policy == WritePolicy::kWriteThrough) {
    RHODOS_RETURN_IF_ERROR(StoreTable(id, *of));
  }
  return len;
}

Status FileService::Resize(FileId id, std::uint64_t size) {
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  if (of->table.attributes().immutable()) {
    return {ErrorCode::kPermissionDenied, "resize of immutable snapshot"};
  }
  const std::uint64_t old_size = of->table.attributes().size;
  const std::uint64_t mapped = of->table.BlockCount();
  const std::uint64_t new_blocks = BlocksCovering(size);
  RHODOS_RETURN_IF_ERROR(AwaitLog(id, new_blocks != mapped ||
                                          of->table.HasSharedRuns() ||
                                          !of->unpersisted.empty()));
  if (new_blocks > mapped) {
    RHODOS_RETURN_IF_ERROR(Grow(id, *of, new_blocks - mapped));
  } else if (new_blocks < mapped) {
    // Shared runs beyond the cut: truncation, decrements, and frees must be
    // one journaled all-or-nothing unit (a crash after freeing but before
    // the table persisted would leave the table claiming freed blocks).
    bool shared_cut = false;
    std::uint64_t seen = 0;
    for (const auto& run : of->table.runs()) {
      if (seen + run.contiguous_count > new_blocks && run.shared()) {
        shared_cut = true;
      }
      seen += run.contiguous_count;
    }
    if (shared_cut) {
      RHODOS_RETURN_IF_ERROR(snap_journal_.Ensure());
      SnapOp op;
      op.kind = SnapOpKind::kRelease;
      op.file = id;
      op.truncate = true;
      op.first_block = new_blocks;
      // Probe the cut without mutating, to record the releases.
      FileIndexTable probe = of->table;
      for (const auto& run : probe.TruncateBlocks(new_blocks)) {
        BuildRelease(run, op);
      }
      RHODOS_ASSIGN_OR_RETURN(const std::uint64_t seq,
                              snap_journal_.LogOp(op));
      RHODOS_RETURN_IF_ERROR(ApplySnapOp(op));
      RHODOS_RETURN_IF_ERROR(snap_journal_.LogDone(seq));
      ++stats_.shared_releases;
      RHODOS_ASSIGN_OR_RETURN(of, LoadTable(id));  // apply may invalidate
    } else {
      for (const auto& run : of->table.TruncateBlocks(new_blocks)) {
        RHODOS_RETURN_IF_ERROR(disks_->Free(
            run.disk, run.first_fragment,
            static_cast<std::uint32_t>(run.contiguous_count) *
                kFragmentsPerBlock));
      }
    }
    // Drop now-stale cache entries beyond the cut.
    PurgeCache(id, new_blocks);
  }
  // A kept tail block about to be partially zeroed must be exclusive: the
  // snapshot sharing it keeps the full-length bytes.
  if (size < old_size && size % kBlockSize != 0 && new_blocks > 0) {
    RHODOS_RETURN_IF_ERROR(EnsureExclusive(id, *of, size / kBlockSize, 1));
  }
  // Shrinking to a mid-block size leaves old bytes in the kept block's
  // tail; zero them now so a later grow re-exposes zeros, not stale data.
  if (size < old_size && size % kBlockSize != 0 && new_blocks > 0) {
    const std::uint64_t last = size / kBlockSize;
    std::vector<std::uint8_t> block(kBlockSize);
    RHODOS_RETURN_IF_ERROR(ReadBlocks(id, *of, last, 1, block));
    std::memset(block.data() + size % kBlockSize, 0,
                kBlockSize - size % kBlockSize);
    RHODOS_RETURN_IF_ERROR(CacheInsert(id, last, block, /*dirty=*/true));
  }
  if (size > old_size) {
    RHODOS_RETURN_IF_ERROR(ZeroUnwritten(id, *of, new_blocks, mapped));
  }
  of->table.attributes().size = size;
  TableChanged(*of);
  BumpVersion(id);
  return StoreTable(id, *of);
}

Result<FileAttributes> FileService::GetAttributes(FileId id) {
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  return of->table.attributes();
}

Status FileService::SetLockLevel(FileId id, LockLevel level) {
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  RHODOS_RETURN_IF_ERROR(AwaitLog(id, !of->unpersisted.empty()));
  of->table.attributes().locking_level = level;
  return StoreTable(id, *of);
}

Status FileService::WritebackDirty(const FileId* only) {
  // Locate every dirty block and let each disk's elevator sweep its share
  // in one vectored request; independent disks overlap. This is what turns
  // N delayed-write completions into a handful of disk references instead
  // of N. A failed disk keeps its blocks dirty; the other disks' land.
  // One file's blocks come in block order from the per-file index; every
  // file's come in the cache's map order.
  std::vector<BlockKey> dirty;
  const auto note = [&](const BlockKey& key, const CacheEntry& entry) {
    if (entry.dirty || (only == nullptr && entry.logged)) dirty.push_back(key);
  };
  if (only == nullptr) {
    cache_.ForEach(note);
  } else {
    for (const std::uint64_t b : cache_.index().Blocks(*only)) {
      note(BlockKey{*only, b}, *cache_.Peek(BlockKey{*only, b}));
    }
  }
  std::vector<PendingPut> puts;
  for (const BlockKey& key : dirty) {
    CacheEntry& entry = *cache_.Peek(key);
    RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(key.file));
    RHODOS_ASSIGN_OR_RETURN(BlockLocation loc, of->table.Locate(key.block));
    RHODOS_ASSIGN_OR_RETURN(DiskServer * server, disks_->Get(loc.disk));
    puts.push_back(PendingPut{server, loc.first_fragment, entry.data, &entry});
  }
  return PutPerDisk(std::move(puts));
}

Status FileService::PutPerDisk(std::vector<PendingPut> puts) {
  sim::PerDeviceFanOut<DiskServer*, PendingPut> per_disk;
  for (const PendingPut& p : puts) per_disk.Add(p.server, p);
  return per_disk.Run(clock_, [](DiskServer* server,
                                 std::vector<PendingPut>& group) -> Status {
    std::vector<disk::WriteRun> runs;
    for (const PendingPut& p : group) {
      runs.push_back(disk::WriteRun{p.frag, kFragmentsPerBlock, p.data});
    }
    RHODOS_RETURN_IF_ERROR(server->PutBlocksVec(runs));
    for (const PendingPut& p : group) {
      if (p.entry != nullptr) {
        p.entry->dirty = false;
        p.entry->logged = false;
      }
    }
    return OkStatus();
  });
}

Status FileService::Sync(FileId id) {
  // What a logged apply changes is the intention log's to write.
  if (logging_ > 0) return OkStatus();
  auto it = open_files_.find(id);
  RHODOS_RETURN_IF_ERROR(AwaitLog(
      FileId{}, it != open_files_.end() && it->second.table_dirty &&
                    !it->second.unpersisted.empty()));
  RHODOS_RETURN_IF_ERROR(WritebackDirty(&id));
  it = open_files_.find(id);
  if (it == open_files_.end() || !it->second.table_dirty) return OkStatus();
  return StoreTable(id, it->second);
}

Status FileService::Flush(FileId id) {
  RHODOS_RETURN_IF_ERROR(Sync(id));
  auto it = open_files_.find(id);
  if (it == open_files_.end()) {
    return parked_attrs_.contains(id) ? StoreParked(id) : OkStatus();
  }
  return it->second.attrs_dirty ? StoreTable(id, it->second) : OkStatus();
}

Status FileService::FlushAll() {
  // Best effort per file, so a failed disk costs only the files that need
  // it. A file's table is stored only once its own data landed: a stored
  // table must never map blocks that do not hold its bytes yet. Whatever
  // cannot be written stays in memory, and the first error is returned.
  RHODOS_RETURN_IF_ERROR(AwaitLog(std::nullopt, /*bitmaps=*/true));
  Status failed = WritebackDirty(nullptr);
  const auto keep = [&failed](Status st) {
    if (failed.ok() && !st.ok()) failed = std::move(st);
  };
  for (auto& [id, of] : open_files_) {
    if ((of.table_dirty || of.table_logged || of.attrs_dirty) &&
        !HoldsDirty(id)) {
      keep(StoreTable(id, of));
    }
  }
  // StoreParked consumes its entry, so walk a copy of the keys.
  std::vector<FileId> parked;
  for (const auto& [id, attrs] : parked_attrs_) parked.push_back(id);
  for (const FileId id : parked) keep(StoreParked(id));
  for (const auto& d : disks_->disks()) {
    keep(d->DrainStableWrites());
    keep(d->PersistMetadata());
  }
  return failed;
}

// --- block-level interface ----------------------------------------------------

Result<std::uint64_t> FileService::BlockCount(FileId id) {
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  return of->table.BlockCount();
}

Status FileService::ReadBlock(FileId id, std::uint64_t block_index,
                              std::span<std::uint8_t> out) {
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  return ReadBlocks(id, *of, block_index, 1, out);
}

Status FileService::WriteBlock(FileId id, std::uint64_t block_index,
                               std::span<const std::uint8_t> in) {
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  if (of->table.attributes().immutable()) {
    return {ErrorCode::kPermissionDenied, "write to immutable snapshot"};
  }
  RHODOS_RETURN_IF_ERROR(AwaitLog(id, of->table.HasSharedRuns()));
  if (block_index >= of->table.BlockCount()) {
    return {ErrorCode::kBadAddress, "write beyond mapped blocks"};
  }
  RHODOS_RETURN_IF_ERROR(EnsureExclusive(id, *of, block_index, 1));
  if (block_index >= BlocksCovering(of->table.attributes().size)) {
    of->written_past_size.insert(block_index);
  }
  RHODOS_ASSIGN_OR_RETURN(CacheEntry * entry,
                          CacheInsert(id, block_index, in, /*dirty=*/true));
  if (PolicyFor(*of) == WritePolicy::kWriteThrough && logging_ == 0) {
    RHODOS_ASSIGN_OR_RETURN(BlockLocation loc,
                            of->table.Locate(block_index));
    RHODOS_ASSIGN_OR_RETURN(DiskServer * server, disks_->Get(loc.disk));
    RHODOS_RETURN_IF_ERROR(
        server->PutBlock(loc.first_fragment, kFragmentsPerBlock, in));
    entry->dirty = false;
  }
  BumpVersion(id);
  return OkStatus();
}

Result<BlockLocation> FileService::LocateBlock(FileId id,
                                               std::uint64_t block_index) {
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  return of->table.Locate(block_index);
}

Result<bool> FileService::IsContiguous(FileId id) {
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  return of->table.FullyContiguous();
}

Result<double> FileService::ContiguityIndex(FileId id) {
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  return of->table.ContiguityIndex();
}

Result<std::vector<BlockDescriptor>> FileService::FileRuns(FileId id) {
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  return of->table.runs();
}

Result<std::vector<BlockDescriptor>> FileService::IndirectBlockLocations(
    FileId id) {
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  return of->indirect_blocks;
}

Status FileService::ReplaceBlocks(FileId id,
                                  const std::vector<BlockRebind>& rebinds) {
  RHODOS_RETURN_IF_ERROR(AwaitLog(id, /*bitmaps=*/true));
  // Each remap lands in the cached table; one store persists the ones the
  // snapshot journal's own table stores have not carried yet.
  bool unstored = false;
  for (const BlockRebind& r : rebinds) {
    RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
    if (of->table.attributes().immutable()) {
      return {ErrorCode::kPermissionDenied, "rebind in immutable snapshot"};
    }
    RHODOS_ASSIGN_OR_RETURN(BlockLocation old,
                            of->table.Locate(r.block_index));
    if (old.disk == r.disk && old.first_fragment == r.fragment) {
      // Carried already: whatever is cached for the block predates it.
      Drop(BlockKey{id, r.block_index});
      continue;
    }
    if (r.block_index >= BlocksCovering(of->table.attributes().size)) {
      of->written_past_size.insert(r.block_index);
    }
    if ((old.flags & kRunShared) != 0) {
      RHODOS_RETURN_IF_ERROR(snap_journal_.Ensure());
      const std::uint32_t share =
          snap_journal_.map().CountOf(old.disk, old.first_fragment);
      if (share >= 2) {
        // The donor block also belongs to a snapshot/clone: rebinding must
        // decrement, not free, and the decrement + rebind must be one
        // journaled unit so a crash never half-applies the shadow commit.
        // Its table store carries every remap made so far.
        SnapOp op;
        op.kind = SnapOpKind::kRelease;
        op.file = id;
        op.rebind = true;
        op.first_block = r.block_index;
        op.block_count = 1;
        op.new_disk = r.disk;
        op.new_fragment = r.fragment;
        op.ref_edits.push_back(
            SnapRefEdit{old.disk, old.first_fragment, 1, share - 1});
        RHODOS_ASSIGN_OR_RETURN(const std::uint64_t seq,
                                snap_journal_.LogOp(op));
        RHODOS_RETURN_IF_ERROR(ApplySnapOp(op));
        RHODOS_RETURN_IF_ERROR(snap_journal_.LogDone(seq));
        ++stats_.shared_releases;
        unstored = false;
        continue;
      }
      // Stale flag (last owner): clear it lazily and free as usual.
      RHODOS_RETURN_IF_ERROR(of->table.ClearSharedInRange(r.block_index, 1));
    }
    RHODOS_RETURN_IF_ERROR(
        of->table.ReplaceBlock(r.block_index, r.disk, r.fragment));
    TableChanged(*of);
    unstored = true;
    if (logging_ > 0) {
      // Freed only once the table that drops it has landed.
      of->logged_frees.push_back(
          BlockDescriptor{old.disk, old.first_fragment, 1});
    } else {
      RHODOS_RETURN_IF_ERROR(
          disks_->Free(old.disk, old.first_fragment, kFragmentsPerBlock));
    }
    // The logical block now lives elsewhere; the cached copy is stale.
    Drop(BlockKey{id, r.block_index});
    BumpVersion(id);
  }
  if (!unstored) return OkStatus();
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  return StoreTable(id, *of);
}

Status FileService::ReconcileTableCopies(FileId id) {
  RHODOS_ASSIGN_OR_RETURN(DiskServer * server, disks_->Get(FileDisk(id)));
  std::vector<std::uint8_t> main(kFragmentSize);
  std::vector<std::uint8_t> mirror(kFragmentSize);
  RHODOS_RETURN_IF_ERROR(server->GetBlock(FileFitFragment(id), 1, main));
  RHODOS_RETURN_IF_ERROR(server->GetBlock(FileFitFragment(id), 1, mirror,
                                          ReadSource::kStable));
  // A main copy that does not parse was scrubbed by a delete (or damaged):
  // storing the mirror's table over it could revive a deleted file.
  if (main == mirror || !ParseFitFragment(main).ok()) return OkStatus();
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  return StoreTable(id, *of);
}

Status FileService::CacheDurableBlock(FileId id, std::uint64_t block_index,
                                      std::span<const std::uint8_t> image) {
  RHODOS_RETURN_IF_ERROR(CacheInsert(id, block_index, image, /*dirty=*/false));
  return OkStatus();
}

Result<LoggedWrites> FileService::TakeLoggedWrites(FileId id) {
  LoggedWrites out;
  out.file = id;
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  for (const std::uint64_t b : cache_.index().Blocks(id)) {
    const CacheEntry& entry = *cache_.Peek(BlockKey{id, b});
    if (!entry.logged) continue;
    RHODOS_ASSIGN_OR_RETURN(BlockLocation loc, of->table.Locate(b));
    RHODOS_ASSIGN_OR_RETURN(DiskServer * server, disks_->Get(loc.disk));
    out.writes.push_back(LoggedWrite{server, loc.first_fragment,
                                     kFragmentsPerBlock, entry.data,
                                     LoggedWrite::Copies::kMain, b});
  }
  out.frees = std::move(of->logged_frees);
  of->logged_frees.clear();
  // The log's redo re-claims what a logged apply allocated until a
  // checkpoint persists the bitmaps.
  of->unpersisted.clear();
  if (!of->table_logged) return out;
  RHODOS_RETURN_IF_ERROR(ProvisionIndirect(id, *of, out.frees));
  const auto copies = of->indirect_blocks.empty()
                          ? LoggedWrite::Copies::kAtOnce
                          : LoggedWrite::Copies::kMainThenMirror;
  // Indirect blocks first, then the fragment that references them.
  for (std::size_t i = 0; i < of->indirect_blocks.size(); ++i) {
    const BlockDescriptor& ib = of->indirect_blocks[i];
    RHODOS_ASSIGN_OR_RETURN(DiskServer * server, disks_->Get(ib.disk));
    out.writes.push_back(LoggedWrite{server, ib.first_fragment,
                                     kFragmentsPerBlock,
                                     of->table.SerializeIndirectBlock(i),
                                     copies});
  }
  RHODOS_ASSIGN_OR_RETURN(DiskServer * home, disks_->Get(FileDisk(id)));
  out.writes.push_back(LoggedWrite{home, FileFitFragment(id), 1,
                                   SerializeFragment(*of), copies});
  out.epoch = of->logged_epoch;
  ++stats_.fit_stores;
  return out;
}

Status FileService::WriteLogged(const LoggedWrite& w) {
  constexpr auto kFill = disk::CacheFill::kResidentOnly;
  switch (w.copies) {
    case LoggedWrite::Copies::kMain:
      return w.disk->PutBlock(w.first, w.count, w.data,
                              disk::StableMode::kNone,
                              disk::WriteSync::kSynchronous, kFill);
    case LoggedWrite::Copies::kAtOnce:
      return w.disk->PutFreshBlock(w.first, w.count, w.data, kFill);
    case LoggedWrite::Copies::kMainThenMirror:
      return w.disk->PutBlock(w.first, w.count, w.data,
                              disk::StableMode::kOriginalAndStable,
                              disk::WriteSync::kSynchronous, kFill);
  }
  return {ErrorCode::kInternal, "bad logged write"};
}

void FileService::LoggedWritesLanded(const LoggedWrites& writes) {
  for (const LoggedWrite& w : writes.writes) {
    if (w.copies != LoggedWrite::Copies::kMain) continue;
    CacheEntry* entry = cache_.Peek(BlockKey{writes.file, w.block});
    if (entry != nullptr && entry->logged && entry->data == w.data) {
      entry->logged = false;
    }
  }
  auto it = open_files_.find(writes.file);
  if (it != open_files_.end() && it->second.table_logged &&
      it->second.logged_epoch == writes.epoch) {
    it->second.table_logged = false;
  }
}

Result<std::vector<disk::DiskRegistry::Placement>>
FileService::AllocateShadowBlocks(FileId id, std::uint32_t count) {
  std::vector<disk::DiskRegistry::Placement> blocks;
  // Prefer one run on the file's home disk: the shadow writes then stay on
  // one spindle, in one reference.
  auto home = disks_->Get(FileDisk(id));
  if (home.ok() && count > 1) {
    if (auto frag = (*home)->AllocateBlocks(count); frag.ok()) {
      for (std::uint32_t i = 0; i < count; ++i) {
        blocks.push_back({(*home)->id(), *frag + i * kFragmentsPerBlock});
      }
      return blocks;
    }
  }
  // No run free: one block per page, on the home disk while it has room.
  while (blocks.size() < count) {
    Result<disk::DiskRegistry::Placement> block =
        Error{ErrorCode::kNoSpace, "no free block"};
    if (home.ok()) {
      if (auto frag = (*home)->AllocateBlocks(1); frag.ok()) {
        block = disk::DiskRegistry::Placement{(*home)->id(), *frag};
      }
    }
    if (!block.ok()) block = disks_->Allocate(kFragmentsPerBlock);
    if (!block.ok()) {
      for (const auto& b : blocks) {
        (void)disks_->Free(b.disk, b.first, kFragmentsPerBlock);
      }
      return Error{block.error()};
    }
    blocks.push_back(*block);
  }
  return blocks;
}

// --- snapshots and clones (E23) -----------------------------------------------

void FileService::Drop(const BlockKey& key) {
  if (const CacheEntry* entry = cache_.Peek(key)) {
    NoteDropped(*entry);
    cache_.Erase(key);
  }
}

void FileService::PurgeCache(FileId id, std::uint64_t from) {
  for (const std::uint64_t b : cache_.index().Blocks(id, from)) {
    Drop(BlockKey{id, b});
  }
}

bool FileService::HoldsDirty(FileId id) const {
  for (const std::uint64_t b : cache_.index().Blocks(id)) {
    const CacheEntry& entry = *cache_.Peek(BlockKey{id, b});
    if (entry.dirty || entry.logged) return true;
  }
  return false;
}

void FileService::BuildRelease(const BlockDescriptor& run, SnapOp& op) {
  if (!run.shared()) {
    op.frees.push_back(
        SnapFree{run.disk, run.first_fragment,
                 static_cast<std::uint32_t>(run.contiguous_count *
                                            kFragmentsPerBlock)});
    return;
  }
  for (const SharePiece& piece : snap_journal_.map().Pieces(
           run.disk, run.first_fragment, run.contiguous_count)) {
    if (piece.count <= 1) {
      op.frees.push_back(
          SnapFree{piece.disk, piece.first_fragment,
                   static_cast<std::uint32_t>(piece.block_count *
                                              kFragmentsPerBlock)});
    } else {
      op.ref_edits.push_back(SnapRefEdit{piece.disk, piece.first_fragment,
                                         piece.block_count, piece.count - 1});
    }
  }
}

Result<FileId> FileService::Snapshot(FileId id) {
  RHODOS_ASSIGN_OR_RETURN(const FileId image,
                          CaptureImage(id, kImageSnapshot));
  ++stats_.snapshots;
  return image;
}

Result<FileId> FileService::Clone(FileId id) {
  RHODOS_ASSIGN_OR_RETURN(const FileId image, CaptureImage(id, kImageClone));
  ++stats_.clones;
  return image;
}

Result<FileId> FileService::CaptureImage(FileId id,
                                         std::uint8_t image_flags) {
  obs::SpanScope span(obs::TracerOf(obs_), "file",
                      (image_flags & kImageSnapshot) != 0 ? "snapshot"
                                                          : "clone");
  RHODOS_RETURN_IF_ERROR(AwaitLog(id, /*bitmaps=*/true));
  RHODOS_RETURN_IF_ERROR(snap_journal_.Ensure());
  // The capture point is the file AS DURABLE NOW: dirty delayed-write
  // blocks and the table reach the platter first, so the image never
  // references data that only ever lived in the cache.
  RHODOS_RETURN_IF_ERROR(Flush(id));
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));

  // The image's index-table fragment, preferably on the source's home disk
  // (the image is pinned to the source's shard either way).
  DiskId img_disk = FileDisk(id);
  FragmentIndex img_frag = 0;
  bool placed = false;
  if (auto server = disks_->Get(img_disk); server.ok()) {
    if (auto frag = (*server)->AllocateFragments(1); frag.ok()) {
      img_frag = *frag;
      placed = true;
    }
  }
  if (!placed) {
    RHODOS_ASSIGN_OR_RETURN(auto placement, disks_->Allocate(1));
    img_disk = placement.disk;
    img_frag = placement.first;
  }
  const FileId image_id = MakeFileId(img_disk, img_frag);

  // One journaled op captures the whole image: every piece of every source
  // run gains one holder (absolute counts — idempotent to replay). A
  // contiguous never-shared file costs exactly one ref edit, which is what
  // keeps snapshot cost independent of file size.
  SnapOp op;
  op.kind = SnapOpKind::kImage;
  op.file = image_id;
  op.source = id;
  op.image_flags = image_flags;
  for (const auto& run : of->table.runs()) {
    for (const SharePiece& piece : snap_journal_.map().Pieces(
             run.disk, run.first_fragment, run.contiguous_count)) {
      op.ref_edits.push_back(SnapRefEdit{piece.disk, piece.first_fragment,
                                         piece.block_count,
                                         piece.count + 1});
    }
  }
  RHODOS_ASSIGN_OR_RETURN(const std::uint64_t seq, snap_journal_.LogOp(op));
  RHODOS_RETURN_IF_ERROR(ApplySnapOp(op));
  RHODOS_RETURN_IF_ERROR(snap_journal_.LogDone(seq));
  return image_id;
}

Status FileService::EnsureExclusive(FileId id, OpenFile& of,
                                    std::uint64_t first_block,
                                    std::uint64_t count) {
  if (count == 0 || of.table.BlockCount() == 0) return OkStatus();
  const std::uint64_t end =
      std::min(first_block + count, of.table.BlockCount());
  // Cheap pre-scan: files that never snapshotted carry no shared runs and
  // pay only this walk of the in-memory table.
  bool any_shared = false;
  for (std::uint64_t b = first_block; b < end;) {
    RHODOS_ASSIGN_OR_RETURN(BlockLocation loc, of.table.Locate(b));
    if ((loc.flags & kRunShared) != 0) {
      any_shared = true;
      break;
    }
    b += std::min<std::uint64_t>(loc.contiguous_blocks, end - b);
  }
  if (!any_shared) return OkStatus();

  RHODOS_RETURN_IF_ERROR(snap_journal_.Ensure());
  for (std::uint64_t b = first_block; b < end;) {
    RHODOS_ASSIGN_OR_RETURN(BlockLocation loc, of.table.Locate(b));
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(loc.contiguous_blocks, end - b));
    if ((loc.flags & kRunShared) == 0) {
      b += n;
      continue;
    }
    // Handle the first uniformly-counted piece, then re-Locate: both the
    // lazy flag clear and the split mutate the run list under us.
    const SharePiece piece =
        snap_journal_.map().Pieces(loc.disk, loc.first_fragment, n).front();
    if (piece.count <= 1) {
      // The other holders are gone; the flag is stale. Clear it lazily —
      // no journal entry needed, the share map already says "exclusive".
      RHODOS_RETURN_IF_ERROR(
          of.table.ClearSharedInRange(b, piece.block_count));
      TableChanged(of);
      b += piece.block_count;
    } else {
      RHODOS_ASSIGN_OR_RETURN(
          const std::uint32_t split,
          CowSplit(id, of, b, piece.block_count, piece.count));
      b += split;
    }
  }
  return OkStatus();
}

Result<std::uint32_t> FileService::CowSplit(FileId id, OpenFile& of,
                                            std::uint64_t first_block,
                                            std::uint32_t count,
                                            std::uint32_t share) {
  obs::SpanScope span(obs::TracerOf(obs_), "file", "cow_split");
  RHODOS_ASSIGN_OR_RETURN(BlockLocation donor, of.table.Locate(first_block));

  // Allocate the private copy, preferring the donor's spindle, halving the
  // chunk as the disks fill (smaller splits, never failure-by-fragmentation).
  std::uint32_t chunk = count;
  DiskId tgt_disk{};
  FragmentIndex tgt_frag = 0;
  while (true) {
    bool placed = false;
    if (auto server = disks_->Get(donor.disk); server.ok()) {
      if (auto frag = (*server)->AllocateBlocks(chunk); frag.ok()) {
        tgt_disk = donor.disk;
        tgt_frag = *frag;
        placed = true;
      }
    }
    if (!placed) {
      if (auto placement = disks_->Allocate(chunk * kFragmentsPerBlock);
          placement.ok()) {
        tgt_disk = placement->disk;
        tgt_frag = placement->first;
        placed = true;
      }
    }
    if (placed) break;
    if (chunk == 1) {
      return Error{ErrorCode::kNoSpace, "no space for copy-on-write split"};
    }
    chunk /= 2;
  }

  // Copy the shared bytes to the private location BEFORE the commit point:
  // if we crash here the allocation was volatile and nothing changed; after
  // the force, redo finds the data already in place.
  std::vector<std::uint8_t> data(
      static_cast<std::size_t>(chunk) * kBlockSize);
  RHODOS_RETURN_IF_ERROR(ReadBlocks(id, of, first_block, chunk, data));
  RHODOS_ASSIGN_OR_RETURN(DiskServer * tgt_server, disks_->Get(tgt_disk));
  RHODOS_RETURN_IF_ERROR(
      tgt_server->PutBlock(tgt_frag, chunk * kFragmentsPerBlock, data));

  SnapOp op;
  op.kind = SnapOpKind::kCowSplit;
  op.file = id;
  op.first_block = first_block;
  op.block_count = chunk;
  op.new_disk = tgt_disk;
  op.new_fragment = tgt_frag;
  op.ref_edits.push_back(
      SnapRefEdit{donor.disk, donor.first_fragment, chunk, share - 1});
  RHODOS_ASSIGN_OR_RETURN(const std::uint64_t seq, snap_journal_.LogOp(op));
  RHODOS_RETURN_IF_ERROR(ApplySnapOp(op));
  RHODOS_RETURN_IF_ERROR(snap_journal_.LogDone(seq));
  ++stats_.cow_splits;
  stats_.cow_blocks_copied += chunk;
  return chunk;
}

Status FileService::ApplySnapOp(const SnapOp& op) {
  // The snapshot journal redoes this operation, not the intention log:
  // its stores are real even inside a LoggedApply.
  struct Unlogged {
    int& logging;
    int saved;
    ~Unlogged() { logging = saved; }
  } unlogged{logging_, std::exchange(logging_, 0)};
  // Re-install the absolute counts first: inline they are already in the
  // map (LogOp applied them), at recovery this is the redo.
  for (const SnapRefEdit& e : op.ref_edits) {
    snap_journal_.map().SetCount(e.disk, e.first_fragment, e.block_count,
                                 e.count);
  }
  std::vector<DiskServer*> touched;
  auto touch = [&touched](DiskServer* s) {
    if (std::find(touched.begin(), touched.end(), s) == touched.end()) {
      touched.push_back(s);
    }
  };
  // Points op.file's blocks [first_block, +block_count) at the range
  // (new_disk, new_fragment): claims the range (volatile at first apply,
  // re-claimed at redo if the bitmap persisted without it), rebinds unless
  // a redo finds the table already bound, stores the table and touches the
  // file's home disk.
  auto bind_new_range = [&]() -> Status {
    RHODOS_ASSIGN_OR_RETURN(DiskServer * server, disks_->Get(op.new_disk));
    if (!server->IsFragmentAllocated(op.new_fragment)) {
      RHODOS_RETURN_IF_ERROR(server->AllocateSpecific(
          op.new_fragment, op.block_count * kFragmentsPerBlock));
    }
    touch(server);
    RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(op.file));
    RHODOS_ASSIGN_OR_RETURN(BlockLocation cur,
                            of->table.Locate(op.first_block));
    if (cur.disk != op.new_disk || cur.first_fragment != op.new_fragment) {
      RHODOS_RETURN_IF_ERROR(of->table.ReplaceRange(
          op.first_block, op.block_count, op.new_disk, op.new_fragment,
          /*flags=*/0));
    }
    of->table_dirty = true;
    RHODOS_RETURN_IF_ERROR(StoreTable(op.file, *of));
    RHODOS_ASSIGN_OR_RETURN(DiskServer * home, disks_->Get(FileDisk(op.file)));
    touch(home);
    return OkStatus();
  };

  switch (op.kind) {
    case SnapOpKind::kImage: {
      // The source's runs all become shared; persist so the COW trigger
      // survives restarts even before the next ordinary table store.
      RHODOS_ASSIGN_OR_RETURN(OpenFile * src, LoadTable(op.source));
      src->table.SetAllRunsShared();
      src->table_dirty = true;
      RHODOS_RETURN_IF_ERROR(StoreTable(op.source, *src));

      // Claim the image's table fragment (volatile allocation at first
      // apply; re-claim at redo if the bitmap persisted without it).
      RHODOS_ASSIGN_OR_RETURN(DiskServer * server,
                              disks_->Get(FileDisk(op.file)));
      if (!server->IsFragmentAllocated(FileFitFragment(op.file))) {
        RHODOS_RETURN_IF_ERROR(
            server->AllocateSpecific(FileFitFragment(op.file), 1));
      }
      touch(server);

      // Materialize the image deterministically from the source: same runs,
      // all shared. A redo that finds a half-stored image from the crashed
      // first attempt adopts its indirect blocks instead of leaking them.
      ForgetTables(&op.file);
      OpenFile image;
      image.table.attributes() = src->table.attributes();
      FileAttributes& attrs = image.table.attributes();
      attrs.ref_count = 0;
      attrs.created_time = clock_ ? clock_->Now() : 0;
      attrs.image_flags = op.image_flags;
      attrs.origin = op.source.value;
      for (const auto& run : src->table.runs()) {
        RHODOS_RETURN_IF_ERROR(image.table.AppendDescriptor(run));
      }
      {
        std::vector<std::uint8_t> fragment(kFragmentSize);
        if (server->GetBlock(FileFitFragment(op.file), 1, fragment).ok()) {
          auto parsed = ParseFitFragment(fragment);
          if (parsed.ok() &&
              parsed->table.attributes().origin == op.source.value &&
              parsed->table.attributes().image_flags == op.image_flags) {
            image.indirect_blocks = std::move(parsed->indirect_blocks);
            for (const auto& ib : image.indirect_blocks) {
              RHODOS_ASSIGN_OR_RETURN(DiskServer * ib_server,
                                      disks_->Get(ib.disk));
              if (!ib_server->IsFragmentAllocated(ib.first_fragment)) {
                RHODOS_RETURN_IF_ERROR(ib_server->AllocateSpecific(
                    ib.first_fragment, kFragmentsPerBlock));
              }
              touch(ib_server);
            }
          }
        }
      }
      RHODOS_RETURN_IF_ERROR(StoreTable(op.file, image));
      for (const auto& ib : image.indirect_blocks) {
        RHODOS_ASSIGN_OR_RETURN(DiskServer * ib_server, disks_->Get(ib.disk));
        touch(ib_server);
      }
      break;
    }

    case SnapOpKind::kCowSplit:
      RHODOS_RETURN_IF_ERROR(bind_new_range());
      break;

    case SnapOpKind::kRelease: {
      if (op.scrub_fit) {
        // Delete: scrub the table (both copies) before the frees, exactly
        // like the unshared delete path.
        RHODOS_ASSIGN_OR_RETURN(DiskServer * server,
                                disks_->Get(FileDisk(op.file)));
        const std::vector<std::uint8_t> zeros(kFragmentSize, 0);
        RHODOS_RETURN_IF_ERROR(server->PutBlock(
            FileFitFragment(op.file), 1, zeros,
            StableMode::kOriginalAndStable, WriteSync::kSynchronous));
        touch(server);
        PurgeCache(op.file, 0);
        ForgetTables(&op.file);
      }
      if (op.truncate) {
        RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(op.file));
        // The freed runs were computed at LogOp time and ride in op.frees /
        // op.ref_edits; the cut itself is redone here. The size attribute
        // is clamped in the SAME stable write: a crash between this commit
        // and the resize's final StoreTable must never leave the table
        // claiming a size beyond its mapped blocks.
        (void)of->table.TruncateBlocks(op.first_block);
        auto& attrs = of->table.attributes();
        if (attrs.size > op.first_block * kBlockSize) {
          attrs.size = op.first_block * kBlockSize;
        }
        of->table_dirty = true;
        RHODOS_RETURN_IF_ERROR(StoreTable(op.file, *of));
        RHODOS_ASSIGN_OR_RETURN(DiskServer * home,
                                disks_->Get(FileDisk(op.file)));
        touch(home);
      }
      if (op.rebind) {
        RHODOS_RETURN_IF_ERROR(bind_new_range());
        // The logical blocks now hold the shadow data: cached copies of the
        // pre-commit content are stale.
        PurgeCache(op.file, op.first_block);
      }
      // Frees last, tolerant of redo (a fragment already freed — or already
      // reused after Done — is left alone; the allocation check makes the
      // free idempotent for the crash-redo window before Done).
      for (const SnapFree& f : op.frees) {
        RHODOS_ASSIGN_OR_RETURN(DiskServer * server, disks_->Get(f.disk));
        if (server->IsFragmentAllocated(f.first_fragment)) {
          RHODOS_RETURN_IF_ERROR(
              server->FreeFragments(f.first_fragment, f.fragment_count));
        }
        touch(server);
      }
      BumpVersion(op.file);
      break;
    }
  }

  // Allocation-visible commit point: the bitmaps of every touched disk.
  for (DiskServer* server : touched) {
    RHODOS_RETURN_IF_ERROR(server->PersistMetadata());
  }
  return OkStatus();
}

Status FileService::RecoverSnapshots() {
  RHODOS_ASSIGN_OR_RETURN(const bool present, snap_journal_.Probe());
  if (!present) return OkStatus();
  RHODOS_RETURN_IF_ERROR(snap_journal_.Ensure());
  for (const SnapOp& op : snap_journal_.TakePending()) {
    RHODOS_RETURN_IF_ERROR(ApplySnapOp(op));
    RHODOS_RETURN_IF_ERROR(snap_journal_.LogDone(op.seq));
  }
  return OkStatus();
}

Result<bool> FileService::HasSharedRuns(FileId id) {
  RHODOS_ASSIGN_OR_RETURN(OpenFile * of, LoadTable(id));
  return of->table.HasSharedRuns();
}

Status FileService::TestSetShareCount(DiskId disk, FragmentIndex first_fragment,
                                      std::uint32_t block_count,
                                      std::uint32_t count) {
  RHODOS_RETURN_IF_ERROR(snap_journal_.Ensure());
  snap_journal_.map().SetCount(disk, first_fragment, block_count, count);
  return OkStatus();
}

// --- failure model --------------------------------------------------------------

void FileService::Crash() {
  // Notify first: the callback table layered above is volatile state too,
  // and must be dropped (with a grace period covering outstanding leases)
  // rather than broken — there is no server left to send the breaks.
  if (crash_listener_) crash_listener_();
  cache_.ForEach(
      [this](const BlockKey&, const CacheEntry& entry) { NoteDropped(entry); });
  cache_.Clear();
  ForgetTables(nullptr);
  // The share map and journal head are volatile; RecoverSnapshots rebuilds
  // them from the stable region.
  snap_journal_.Reset();
  // Dirty delayed-write data died with the volatile state, so any file a
  // client cached before the crash may have silently reverted to older
  // contents. Bump every version so those caches revalidate.
  for (auto& [id, v] : versions_) ++v;
}

std::uint64_t FileService::Version(FileId id) const {
  auto it = versions_.find(id);
  return it == versions_.end() ? TokenSalt() + 1 : it->second;
}

void FileService::BumpVersion(FileId id) {
  // First mutation moves the file from the implicit version 1 to 2
  // (relative to this service's salt).
  auto [it, inserted] = versions_.emplace(id, TokenSalt() + 2);
  if (!inserted) ++it->second;
  // Break-before-reply: BumpVersion runs inside the mutating operation, so
  // the listener's callback breaks land before the mutation's reply.
  if (mutation_listener_) mutation_listener_(id, it->second);
}

}  // namespace rhodos::file
