#include "txn/transaction_service.h"

#include <algorithm>
#include <cstring>
#include <deque>

#include "common/serializer.h"
#include "disk/stable_frame.h"
#include "sim/parallel.h"

namespace rhodos::txn {

using file::FileAttributes;
using file::FileService;
using file::LockLevel;
using file::ServiceType;

// Default-locking-level heuristic (§7): a file accessed at least this often
// counts as hot and defaults to record locking; a colder file at least this
// large defaults to file locking; page otherwise.
constexpr std::uint64_t kHotAccessThreshold = 32;
constexpr std::uint64_t kLargeFileBytes = 1024 * 1024;

TransactionService::TransactionService(disk::DiskRegistry* disks,
                                       file::FileResolver files,
                                       TxnServiceConfig config)
    : disks_(disks),
      files_(std::move(files)),
      config_(config),
      locks_(config.lock_timeout),
      log_disk_(disks->disks().front().get()),
      // The log region lives at a FIXED location — immediately after disk
      // 0's metadata region — so a service instance created after a crash
      // finds the same intentions the pre-crash instance wrote.
      log_first_fragment_(log_disk_->MetadataFragments()),
      log_(log_disk_, log_first_fragment_, config.log_fragments),
      pipeline_(&log_, log_disk_, &mu_, config.group_commit) {
  // First instance on this disk claims the region; later instances find it
  // already allocated, which is fine — it is the same log.
  (void)log_disk_->AllocateSpecific(log_first_fragment_,
                                    static_cast<std::uint32_t>(
                                        config.log_fragments));
  files_(FileId{}).SetLogClaims(&claims_);
  pipeline_.SetWriteBehind(
      [this](std::vector<LogPipeline::Owed>& out) {
        // A write the flush does not carry keeps this status.
        const Status not_carried{ErrorCode::kUnavailable,
                                 "owed write waits for a later force"};
        for (std::size_t g = 0; g < owed_.size(); ++g) {
          Owed& o = owed_[g];
          o.status.assign(o.writes.writes.size(), not_carried);
          for (std::size_t i = 0; i < o.writes.writes.size(); ++i) {
            const file::LoggedWrite& w = o.writes.writes[i];
            out.push_back({w.disk->id(), w.both_devices(), w.in_order(), g,
                           [&w] { return FileService::WriteLogged(w); },
                           &o.status[i]});
          }
        }
      },
      [this] { SettleWriteBehind(); });
}

// --- lifecycle -----------------------------------------------------------------

Result<TxnId> TransactionService::Begin(ProcessId process) {
  obs::SpanScope span(obs::TracerOf(obs_), "txn", "begin");
  std::scoped_lock lk(mu_);
  const TxnId id{next_txn_++};
  Txn t;
  t.process = process;
  txns_.emplace(id, std::move(t));
  ++stats_.begins;
  return id;
}

Result<TransactionService::Txn*> TransactionService::Live(TxnId txn) {
  // Caller must hold mu_.
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return Error{ErrorCode::kTxnNotActive,
                 "transaction " + std::to_string(txn.value) + " not active"};
  }
  return &it->second;
}

bool TransactionService::IsActive(TxnId txn) const {
  std::scoped_lock lk(mu_);
  return txns_.count(txn) != 0;
}

Result<LockLevel> TransactionService::LevelOf(FileId file) {
  RHODOS_ASSIGN_OR_RETURN(FileAttributes attrs,
                          files_(file).GetAttributes(file));
  return attrs.locking_level;
}

Status TransactionService::AcquireLocks(TxnId txn, Txn& t, FileId file,
                                        LockLevel level, std::uint64_t offset,
                                        std::uint64_t len, LockMode mode) {
  obs::SpanScope span(obs::TracerOf(obs_), "lock", "acquire");
  if (t.phase != TxnPhase::kLocking) {
    // Strict 2PL: no new locks once the unlocking phase has begun.
    return {ErrorCode::kTxnNotActive, "transaction is past its locking phase"};
  }
  switch (level) {
    case LockLevel::kRecord:
      return locks_.SetLock(level, txn, t.process, t.phase,
                            DataItem::Record(file, offset, len), mode);
    case LockLevel::kPage: {
      const std::uint64_t first = offset / kBlockSize;
      const std::uint64_t last =
          len == 0 ? first : (offset + len - 1) / kBlockSize;
      for (std::uint64_t p = first; p <= last; ++p) {
        RHODOS_RETURN_IF_ERROR(locks_.SetLock(level, txn, t.process, t.phase,
                                              DataItem::Page(file, p), mode));
      }
      return OkStatus();
    }
    case LockLevel::kFile:
      return locks_.SetLock(level, txn, t.process, t.phase,
                            DataItem::File(file), mode);
  }
  return {ErrorCode::kInternal, "bad lock level"};
}

// --- t-operations -----------------------------------------------------------------

Result<FileId> TransactionService::TCreate(TxnId txn, LockLevel level,
                                           std::uint64_t size_hint) {
  std::scoped_lock lk(mu_);
  RHODOS_ASSIGN_OR_RETURN(Txn * t, Live(txn));
  if (locks_.WasBroken(txn)) {
    return Error{ErrorCode::kTxnAborted, "broken by lock timeout"};
  }
  RHODOS_RETURN_IF_ERROR(CheckpointLocked(/*eager=*/true));
  RHODOS_ASSIGN_OR_RETURN(FileId file,
                          files_(FileId{}).Create(ServiceType::kTransaction,
                                                  size_hint));
  RHODOS_RETURN_IF_ERROR(files_(file).SetLockLevel(file, level));
  t->touched.insert(file);
  t->created.insert(file);
  // The creator owns the new file exclusively; nobody else can know its
  // name yet, so the IW lock is uncontended by construction.
  RHODOS_RETURN_IF_ERROR(locks_.TryLock(level, txn, t->process, t->phase,
                                        DataItem::File(file),
                                        LockMode::kIWrite));
  return file;
}

Status TransactionService::TOpen(TxnId txn, FileId file) {
  std::scoped_lock lk(mu_);
  RHODOS_ASSIGN_OR_RETURN(Txn * t, Live(txn));
  (void)t;
  return files_(file).Open(file);
}

Status TransactionService::TClose(TxnId txn, FileId file) {
  std::scoped_lock lk(mu_);
  RHODOS_ASSIGN_OR_RETURN(Txn * t, Live(txn));
  (void)t;
  RHODOS_RETURN_IF_ERROR(CheckpointLocked(/*eager=*/true));
  return files_(file).Close(file);
}

Status TransactionService::TDelete(TxnId txn, FileId file) {
  // Deleting needs exclusive ownership of the whole file, whatever its
  // locking level.
  Txn* t;
  LockLevel level;
  {
    std::scoped_lock lk(mu_);
    RHODOS_ASSIGN_OR_RETURN(t, Live(txn));
    RHODOS_ASSIGN_OR_RETURN(level, LevelOf(file));
  }
  RHODOS_RETURN_IF_ERROR(locks_.SetLock(level, txn, t->process, t->phase,
                                        DataItem::File(file),
                                        LockMode::kIWrite));
  std::scoped_lock lk(mu_);
  t->touched.insert(file);
  t->to_delete.insert(file);
  return OkStatus();
}

Result<std::uint64_t> TransactionService::ReadWithOverlay(
    Txn& t, FileId file, std::uint64_t offset, std::span<std::uint8_t> out) {
  // Effective size includes the transaction's own (tentative) growth.
  FileService& owner = files_(file);
  RHODOS_ASSIGN_OR_RETURN(FileAttributes attrs, owner.GetAttributes(file));
  std::uint64_t size = attrs.size;
  if (auto it = t.tentative_size.find(file); it != t.tentative_size.end()) {
    size = std::max(size, it->second);
  }
  if (offset >= size) return std::uint64_t{0};
  const std::uint64_t len = std::min<std::uint64_t>(out.size(), size - offset);
  std::memset(out.data(), 0, len);
  // Base content from the (committed) file — may be shorter than len.
  auto base = owner.Read(file, offset, out.subspan(0, len));
  if (!base.ok()) return base;

  // Overlay tentative pages.
  const std::uint64_t first_page = offset / kBlockSize;
  const std::uint64_t last_page = (offset + len - 1) / kBlockSize;
  for (std::uint64_t p = first_page; p <= last_page; ++p) {
    auto it = t.tentative_pages.find({file.value, p});
    if (it == t.tentative_pages.end()) continue;
    const std::uint64_t page_begin = p * kBlockSize;
    const std::uint64_t lo = std::max(offset, page_begin);
    const std::uint64_t hi = std::min(offset + len, page_begin + kBlockSize);
    std::memcpy(out.data() + (lo - offset),
                it->second.data() + (lo - page_begin), hi - lo);
  }
  // Overlay tentative byte ranges, in write order.
  for (const auto& [fval, w] : t.tentative_ranges) {
    if (fval != file.value) continue;
    const std::uint64_t w_end = w.offset + w.data.size();
    const std::uint64_t lo = std::max(offset, w.offset);
    const std::uint64_t hi = std::min(offset + len, w_end);
    if (lo >= hi) continue;
    std::memcpy(out.data() + (lo - offset), w.data.data() + (lo - w.offset),
                hi - lo);
  }
  return len;
}

Result<std::uint64_t> TransactionService::TRead(TxnId txn, FileId file,
                                                std::uint64_t offset,
                                                std::span<std::uint8_t> out,
                                                ReadIntent intent) {
  obs::SpanScope span(obs::TracerOf(obs_), "txn", "read");
  Txn* t;
  LockLevel level;
  {
    std::scoped_lock lk(mu_);
    RHODOS_ASSIGN_OR_RETURN(t, Live(txn));
    RHODOS_ASSIGN_OR_RETURN(level, LevelOf(file));
  }
  if (locks_.WasBroken(txn)) {
    (void)Abort(txn);
    return Error{ErrorCode::kTxnAborted, "broken by lock timeout"};
  }
  // "A data item is read-only locked ... to perform some query. If a
  // transaction reads a data item to modify it, then ... an Iread lock."
  const LockMode mode = intent == ReadIntent::kQuery ? LockMode::kReadOnly
                                                     : LockMode::kIRead;
  RHODOS_RETURN_IF_ERROR(AcquireLocks(txn, *t, file, level, offset,
                                      out.size(), mode));
  std::scoped_lock lk(mu_);
  t->touched.insert(file);
  return ReadWithOverlay(*t, file, offset, out);
}

Result<std::uint64_t> TransactionService::TWrite(
    TxnId txn, FileId file, std::uint64_t offset,
    std::span<const std::uint8_t> in) {
  obs::SpanScope span(obs::TracerOf(obs_), "txn", "write");
  Txn* t;
  LockLevel level;
  {
    std::scoped_lock lk(mu_);
    RHODOS_ASSIGN_OR_RETURN(t, Live(txn));
    RHODOS_ASSIGN_OR_RETURN(level, LevelOf(file));
  }
  if (locks_.WasBroken(txn)) {
    (void)Abort(txn);
    return Error{ErrorCode::kTxnAborted, "broken by lock timeout"};
  }
  RHODOS_RETURN_IF_ERROR(AcquireLocks(txn, *t, file, level, offset, in.size(),
                                      LockMode::kIWrite));

  std::scoped_lock lk(mu_);
  FileService& owner = files_(file);
  t->touched.insert(file);
  auto attrs = owner.GetAttributes(file);
  const std::uint64_t committed = attrs.ok() ? attrs->size : 0;
  auto& tsize = t->tentative_size[file];
  tsize = std::max<std::uint64_t>({tsize, offset + in.size(), committed});

  if (level == LockLevel::kRecord) {
    // Record mode: the tentative data item is the exact byte range; it is
    // committed with a WAL range record (§6.7 poses no limit on record
    // size).
    t->tentative_ranges.emplace_back(
        file.value,
        PendingWrite{offset, std::vector<std::uint8_t>(in.begin(), in.end())});
    return in.size();
  }

  // Page/file mode: the tentative data item is a page image.
  std::uint64_t written = 0;
  while (written < in.size()) {
    const std::uint64_t pos = offset + written;
    const std::uint64_t page = pos / kBlockSize;
    const std::uint64_t in_page = pos % kBlockSize;
    const std::uint64_t n =
        std::min<std::uint64_t>(in.size() - written, kBlockSize - in_page);
    auto key = std::make_pair(file.value, page);
    auto it = t->tentative_pages.find(key);
    if (it == t->tentative_pages.end()) {
      // Build the isolated copy: current committed content, zeros past
      // the committed end. A mapped block there holds whatever its platter
      // held (a size hint maps its run unwritten), so its bytes are not
      // the file's.
      std::vector<std::uint8_t> image(kBlockSize, 0);
      RHODOS_ASSIGN_OR_RETURN(std::uint64_t blocks, owner.BlockCount(file));
      if (page < blocks) {
        RHODOS_RETURN_IF_ERROR(owner.ReadBlock(file, page, image));
        const std::uint64_t start = page * kBlockSize;
        const std::uint64_t kept =
            std::clamp(committed, start, start + kBlockSize) - start;
        std::fill(image.begin() + static_cast<std::ptrdiff_t>(kept),
                  image.end(), std::uint8_t{0});
      }
      it = t->tentative_pages.emplace(key, std::move(image)).first;
    }
    std::memcpy(it->second.data() + in_page, in.data() + written, n);
    written += n;
  }
  return in.size();
}

Result<FileAttributes> TransactionService::TGetAttribute(TxnId txn,
                                                         FileId file) {
  std::scoped_lock lk(mu_);
  RHODOS_ASSIGN_OR_RETURN(Txn * t, Live(txn));
  RHODOS_ASSIGN_OR_RETURN(FileAttributes attrs,
                          files_(file).GetAttributes(file));
  if (auto it = t->tentative_size.find(file); it != t->tentative_size.end()) {
    attrs.size = std::max(attrs.size, it->second);
  }
  return attrs;
}

// --- commit / abort ------------------------------------------------------------------

Result<CommitTechnique> TransactionService::TechniqueFor(FileId file) {
  switch (config_.technique) {
    case TxnServiceConfig::TechniqueOverride::kWalAlways:
      return CommitTechnique::kWal;
    case TxnServiceConfig::TechniqueOverride::kShadowAlways:
      return CommitTechnique::kShadowPage;
    case TxnServiceConfig::TechniqueOverride::kAuto:
      break;
  }
  // A file with shared (snapshot/clone) runs must not be written in place:
  // shadow paging stages a fresh block and commits through the file
  // service's journaled rebind, which decrements the donor's share count
  // instead of overwriting bytes the snapshot still references.
  FileService& owner = files_(file);
  RHODOS_ASSIGN_OR_RETURN(bool shared, owner.HasSharedRuns(file));
  if (shared) return CommitTechnique::kShadowPage;
  // "use the shadow page technique when the data blocks are not contiguous
  // and the wal technique when the data blocks are contiguous. Whether data
  // blocks are contiguous or not is very easy to determine by using the
  // knowledge of the ... count" (§6.7).
  RHODOS_ASSIGN_OR_RETURN(bool contiguous, owner.IsContiguous(file));
  return contiguous ? CommitTechnique::kWal : CommitTechnique::kShadowPage;
}

Result<LockLevel> TransactionService::SuggestLockLevel(FileId file) {
  std::scoped_lock lk(mu_);
  RHODOS_ASSIGN_OR_RETURN(file::FileAttributes attrs,
                          files_(file).GetAttributes(file));
  if (attrs.access_count >= kHotAccessThreshold) {
    // Frequently used: simultaneous updates are likely, so the fine
    // granularity that "maximizes the concurrent execution of
    // transactions" (§7) pays for its extra lock records.
    return LockLevel::kRecord;
  }
  if (attrs.size >= kLargeFileBytes) {
    // Large and cold: updates tend to be bulk, and "there are fewer locks
    // to manage" at file level (§6.1).
    return LockLevel::kFile;
  }
  return LockLevel::kPage;
}

Status TransactionService::ApplyDefaultLockLevel(FileId file) {
  RHODOS_ASSIGN_OR_RETURN(LockLevel level, SuggestLockLevel(file));
  std::scoped_lock lk(mu_);
  RHODOS_RETURN_IF_ERROR(CheckpointLocked(/*eager=*/true));
  return files_(file).SetLockLevel(file, level);
}

namespace {

// What a kShadowMap record carries in `data`: the checksum of its page,
// then the block the remap replaces, unless that block is shared with a
// snapshot (its share count, not the log, decides its fate).
constexpr std::size_t kShadowChecksumBytes = 8;
constexpr std::size_t kShadowDataBytes = kShadowChecksumBytes + 4 + 8;

std::vector<std::uint8_t> ShadowData(std::span<const std::uint8_t> page,
                                     const file::BlockLocation& old) {
  Serializer out;
  out.U64(disk::BlockChecksum(page));
  if ((old.flags & kRunShared) == 0) {
    out.U32(old.disk.value);
    out.U64(old.first_fragment);
  }
  return out.buffer();
}

// Upper bound on the log bytes one record takes besides its payload.
constexpr std::uint64_t kRecordBytesBound = 128;

}  // namespace

Result<std::vector<FreshRun>> TransactionService::PlaceShadows(
    const Txn& t, std::vector<ShadowStage>& shadows) {
  // The pages homed on one disk share one allocation: one contiguous run
  // there when the disk has one free.
  std::vector<std::pair<DiskId, std::vector<ShadowStage*>>> homes;
  for (ShadowStage& s : shadows) {
    const DiskId home = file::FileDisk(s.file);
    auto it = std::find_if(homes.begin(), homes.end(),
                           [home](const auto& h) { return h.first == home; });
    if (it == homes.end()) it = homes.insert(homes.end(), {home, {}});
    it->second.push_back(&s);
  }
  std::vector<FreshRun> runs;
  for (std::size_t h = 0; h < homes.size(); ++h) {
    const auto& pages = homes[h].second;
    const FileId file = pages.front()->file;
    auto blocks = files_(file).AllocateShadowBlocks(
        file, static_cast<std::uint32_t>(pages.size()));
    if (!blocks.ok()) {
      // Nothing refers to the blocks already placed: give them back.
      for (std::size_t j = 0; j < h; ++j) {
        for (const ShadowStage* s : homes[j].second) {
          (void)disks_->Free(s->placement.disk, s->placement.first,
                             kFragmentsPerBlock);
        }
      }
      return Error{blocks.error()};
    }
    for (std::size_t i = 0; i < pages.size(); ++i) {
      ShadowStage& s = *pages[i];
      s.placement = (*blocks)[i];
      // A block that starts where the last run ends extends that run.
      FreshRun* last = runs.empty() ? nullptr : &runs.back();
      if (last == nullptr || last->disk->id() != s.placement.disk ||
          last->first + last->image.size() / kFragmentSize !=
              s.placement.first) {
        RHODOS_ASSIGN_OR_RETURN(disk::DiskServer * server,
                                disks_->Get(s.placement.disk));
        last = &runs.emplace_back(FreshRun{server, s.placement.first, {}});
      }
      const auto& image = t.tentative_pages.at({s.file.value, s.page});
      last->image.insert(last->image.end(), image.begin(), image.end());
    }
  }
  return runs;
}

Status TransactionService::StageCommit(TxnId id, Txn& t, CommitPlan* plan) {
  t.phase = TxnPhase::kUnlocking;

  plan->has_effects = !t.tentative_pages.empty() ||
                      !t.tentative_ranges.empty() ||
                      !t.to_delete.empty() || !t.created.empty();
  if (!plan->has_effects) {
    // Read-only transaction: nothing to log or apply.
    return OkStatus();
  }

  // Every intention goes to the group-commit pipeline; nothing here is
  // written or forced. The pipeline serializes a record as it appends it,
  // so the plan keeps the redo records themselves for ApplyCommit. The
  // last append is the commit status record, so the ticket left in the
  // plan is the one End() must await.
  auto append = [&](IntentionRecord r,
                    std::vector<FreshRun> runs = {}) -> Status {
    auto ticket = pipeline_.Append(r, std::move(runs));
    if (!ticket.ok()) return Error{ticket.error()};
    plan->commit_ticket = std::move(*ticket);
    if (r.kind != IntentionKind::kBegin && r.kind != IntentionKind::kStatus) {
      plan->records.push_back(std::move(r));
    }
    return OkStatus();
  };

  RHODOS_RETURN_IF_ERROR(append(
      IntentionRecord{IntentionKind::kBegin, id, {}, 0, 0, {}, 0,
                      TxnStatus::kTentative, {}}));

  // Per-file technique choice. A shadow-paged file's existing pages are
  // shadowed; a page past its end grows the file through WAL.
  std::vector<ShadowStage> shadows;
  for (const auto& [key, image] : t.tentative_pages) {
    const FileId file{key.first};
    auto tech_it = plan->technique.find(file.value);
    if (tech_it == plan->technique.end()) {
      RHODOS_ASSIGN_OR_RETURN(CommitTechnique tech, TechniqueFor(file));
      tech_it = plan->technique.emplace(file.value, tech).first;
    }
    if (tech_it->second != CommitTechnique::kShadowPage) continue;
    RHODOS_ASSIGN_OR_RETURN(std::uint64_t blocks,
                            files_(file).BlockCount(file));
    if (key.second < blocks) {
      shadows.push_back(ShadowStage{file, key.second, {}});
    }
  }
  RHODOS_ASSIGN_OR_RETURN(std::vector<FreshRun> runs,
                          PlaceShadows(t, shadows));

  // A WAL page's image moves into its record: only a shadowed page's
  // image is needed after the commit, to cache it (ApplyCommit).
  auto shadow = shadows.begin();
  for (auto& [key, image] : t.tentative_pages) {
    const FileId file{key.first};
    const std::uint64_t page = key.second;
    const std::uint64_t final_size =
        t.tentative_size.count(file) ? t.tentative_size.at(file) : 0;
    if (shadow != shadows.end() && shadow->file == file &&
        shadow->page == page) {
      // Shadow page: log only the remap intention, the page's checksum and
      // the block it replaces. The image itself rides the commit record to
      // its fresh block, in the flush that forces the record; recovery
      // redoes the remap only if the block reads back with this checksum.
      RHODOS_ASSIGN_OR_RETURN(file::BlockLocation old,
                              files_(file).LocateBlock(file, page));
      RHODOS_RETURN_IF_ERROR(append(IntentionRecord{
          IntentionKind::kShadowMap, id, file, page, final_size,
          shadow->placement.disk, shadow->placement.first,
          TxnStatus::kTentative, ShadowData(image, old)}));
      ++shadow;
    } else {
      // WAL: the page image itself is the intention (redo record). The
      // file's final size rides in `offset`, as in a kShadowMap record.
      RHODOS_RETURN_IF_ERROR(append(IntentionRecord{
          IntentionKind::kRedoPage, id, file, page, final_size, {}, 0,
          TxnStatus::kTentative, std::move(image)}));
      ++stats_.pages_logged;
    }
  }
  for (auto& [fval, w] : t.tentative_ranges) {
    // Record-locked files commit their range writes by WAL.
    plan->technique.emplace(fval, CommitTechnique::kWal);
    RHODOS_RETURN_IF_ERROR(append(IntentionRecord{
        IntentionKind::kRedoRange, id, FileId{fval}, 0, w.offset, {}, 0,
        TxnStatus::kTentative, std::move(w.data)}));
    ++stats_.ranges_logged;
  }

  // Deletes ride the intentions list too: once the commit record lands, a
  // crash before the apply must still release the file — which for a file
  // sharing blocks with snapshots means a refcounted release, not a blind
  // free. Recovery redoes these through FileService::Delete.
  for (FileId file : t.to_delete) {
    RHODOS_RETURN_IF_ERROR(append(IntentionRecord{
        IntentionKind::kDeleteFile, id, file, 0, 0, {}, 0,
        TxnStatus::kTentative, {}}));
  }

  // THE COMMIT POINT record, carrying the shadow runs: the transaction is
  // durable once the flush that forces this record's batch has also
  // written its runs — which is exactly what the ticket left in the plan
  // resolves on. From it on, a recovery may redo the transaction: the log
  // claims its files, and the bitmaps a remap or a delete changes.
  RHODOS_RETURN_IF_ERROR(
      append(IntentionRecord{IntentionKind::kStatus, id, {}, 0, 0, {}, 0,
                             TxnStatus::kCommit, {}},
             std::move(runs)));
  for (const IntentionRecord& r : plan->records) {
    claims_.Claim(r.file,
                  r.kind == IntentionKind::kShadowMap ||
                      r.kind == IntentionKind::kDeleteFile,
                  log_.generation());
  }
  return OkStatus();
}

Status TransactionService::Redo(std::span<const IntentionRecord> records,
                                RedoStep step) {
  switch (step) {
    case RedoStep::kWrites: {
      // Before anything is written, note where each remap stands (no write
      // here changes it) and claim every block the records remap or write:
      // a crash may have lost an allocation with the unpersisted bitmap
      // even where the table that maps the block reached the disk (a
      // staged shadow block, or one a growth appended), and a page write
      // that grows its file must not allocate one of them.
      auto claim = [&](DiskId disk, FragmentIndex first) {
        if (auto server = disks_->Get(disk); server.ok()) {
          (void)(*server)->AllocateSpecific(first, kFragmentsPerBlock);
        }
      };
      // Per file, the remaps with one table store; a remap in place only
      // drops what is cached for its page, which may be an older commit's
      // image.
      std::map<std::uint64_t, std::vector<file::BlockRebind>> remaps;
      for (const IntentionRecord& r : records) {
        if (r.kind == IntentionKind::kShadowMap) {
          if (RemapState(r) == Remap::kNoFile) continue;
          claim(r.new_disk, r.new_fragment);
          remaps[r.file.value].push_back(
              file::BlockRebind{r.block_index, r.new_disk, r.new_fragment});
          continue;
        }
        const bool page = r.kind == IntentionKind::kRedoPage;
        if (!page && r.kind != IntentionKind::kRedoRange) continue;
        const std::uint64_t first =
            page ? r.block_index : r.offset / kBlockSize;
        const std::uint64_t end =
            page ? first + 1
                 : (r.offset + r.data.size() + kBlockSize - 1) / kBlockSize;
        for (std::uint64_t b = first; b < end; ++b) {
          auto loc = files_(r.file).LocateBlock(r.file, b);
          if (loc.ok()) claim(loc->disk, loc->first_fragment);
        }
      }
      for (const IntentionRecord& r : records) {
        if (r.kind != IntentionKind::kRedoPage) continue;
        FileService& owner = files_(r.file);
        RHODOS_ASSIGN_OR_RETURN(std::uint64_t blocks,
                                owner.BlockCount(r.file));
        if (r.block_index >= blocks) {
          // Never past the final size: no later step shrinks a file.
          RHODOS_RETURN_IF_ERROR(owner.Resize(
              r.file, std::min(r.offset, (r.block_index + 1) * kBlockSize)));
        }
        RHODOS_RETURN_IF_ERROR(
            owner.WriteBlock(r.file, r.block_index, r.data));
      }
      for (const auto& [fval, rebinds] : remaps) {
        const FileId file{fval};
        RHODOS_RETURN_IF_ERROR(files_(file).ReplaceBlocks(file, rebinds));
      }
      for (const IntentionRecord& r : records) {
        if (r.kind != IntentionKind::kRedoRange) continue;
        FileService& owner = files_(r.file);
        auto n = owner.Write(r.file, r.offset, r.data);
        if (!n.ok()) return Error{n.error()};
      }
      return OkStatus();
    }
    case RedoStep::kSizes: {
      // Range writes set their own size. A file the commit deletes keeps
      // its size.
      std::map<std::uint64_t, std::uint64_t> sizes;
      for (const IntentionRecord& r : records) {
        if (r.kind == IntentionKind::kRedoPage ||
            r.kind == IntentionKind::kShadowMap) {
          sizes[r.file.value] = std::max(sizes[r.file.value], r.offset);
        }
      }
      for (const IntentionRecord& r : records) {
        if (r.kind == IntentionKind::kDeleteFile) sizes.erase(r.file.value);
      }
      for (const auto& [fval, size] : sizes) {
        const FileId file{fval};
        auto attrs = files_(file).GetAttributes(file);
        if (attrs.ok() && attrs->size < size) {
          RHODOS_RETURN_IF_ERROR(files_(file).Resize(file, size));
        }
      }
      return OkStatus();
    }
    case RedoStep::kDeletes:
      for (const IntentionRecord& r : records) {
        // A table that no longer loads means the file is gone already.
        if (r.kind == IntentionKind::kDeleteFile &&
            files_(r.file).GetAttributes(r.file).ok()) {
          RHODOS_RETURN_IF_ERROR(files_(r.file).Delete(r.file));
        }
      }
      return OkStatus();
  }
  return {ErrorCode::kInternal, "bad redo step"};
}

Status TransactionService::ApplyCommit(const Txn& t, const CommitPlan& plan) {
  // The commit is durable: make it permanent in the owners' caches only,
  // redoing its records as recovery would, and hand what that leaves owed
  // to the write-behind. What does write now — a snapshot journal's rebind,
  // a delete — the log covers too.
  // A remap frees the block it replaces, a delete frees the file's, and a
  // growth allocates: the bitmaps change only then.
  for (const IntentionRecord& r : plan.records) {
    bitmaps_dirty_ = bitmaps_dirty_ || r.kind == IntentionKind::kShadowMap ||
                     r.kind == IntentionKind::kDeleteFile;
  }
  std::unordered_map<FileId, std::uint64_t> blocks_before;
  {
    std::deque<FileService::LoggedApply> logged;
    std::vector<FileService*> owners;
    for (FileId file : t.touched) {
      FileService* owner = &files_(file);
      if (std::find(owners.begin(), owners.end(), owner) == owners.end()) {
        owners.push_back(owner);
        logged.emplace_back(*owner);
      }
      if (auto blocks = owner->BlockCount(file); blocks.ok()) {
        blocks_before[file] = *blocks;
      }
    }
    RHODOS_RETURN_IF_ERROR(Redo(plan.records, RedoStep::kWrites));
    // Each remapped page's new block holds its image since the commit
    // force: keep that image cached.
    for (const IntentionRecord& r : plan.records) {
      if (r.kind != IntentionKind::kShadowMap) continue;
      RHODOS_RETURN_IF_ERROR(files_(r.file).CacheDurableBlock(
          r.file, r.block_index,
          t.tentative_pages.at({r.file.value, r.block_index})));
    }
    RHODOS_RETURN_IF_ERROR(Redo(plan.records, RedoStep::kSizes));
    for (FileId file : t.touched) {
      if (t.to_delete.contains(file)) continue;
      auto blocks = files_(file).BlockCount(file);
      bitmaps_dirty_ = bitmaps_dirty_ || !blocks.ok() ||
                       *blocks != blocks_before[file];
      RHODOS_RETURN_IF_ERROR(Owe(file));
    }
    claims_.Claim(FileId{}, bitmaps_dirty_, log_.generation());
    // A deleted file's owed writes must not land on blocks its delete
    // frees; the blocks its remaps replaced go with it.
    std::erase_if(owed_, [&](const Owed& o) {
      if (!t.to_delete.contains(o.writes.file)) return false;
      for (const BlockDescriptor& b : o.writes.frees) {
        (void)disks_->Free(b.disk, b.first_fragment, kFragmentsPerBlock);
      }
      return true;
    });
    RHODOS_RETURN_IF_ERROR(Redo(plan.records, RedoStep::kDeletes));
  }
  for (const auto& [fval, tech] : plan.technique) {
    if (tech == CommitTechnique::kWal) {
      ++stats_.wal_commits;
    } else {
      ++stats_.shadow_commits;
    }
  }
  return OkStatus();
}

Status TransactionService::Owe(FileId file) {
  FileService& owner = files_(file);
  RHODOS_ASSIGN_OR_RETURN(file::LoggedWrites writes,
                          owner.TakeLoggedWrites(file));
  if (writes.empty()) return OkStatus();
  // The capture holds the file's whole logged state, so it replaces a group
  // the file still owes in place; only the frees add up.
  auto it = std::find_if(owed_.begin(), owed_.end(), [file](const Owed& o) {
    return o.writes.file == file;
  });
  if (it == owed_.end()) {
    owed_.push_back(Owed{&owner, std::move(writes), {}});
    return OkStatus();
  }
  writes.frees.insert(writes.frees.begin(), it->writes.frees.begin(),
                      it->writes.frees.end());
  *it = Owed{&owner, std::move(writes), {}};
  return OkStatus();
}

void TransactionService::SettleWriteBehind() {
  std::erase_if(owed_, [this](const Owed& o) {
    for (const Status& st : o.status) {
      if (!st.ok()) return false;
    }
    o.owner->LoggedWritesLanded(o.writes);
    // The table that dropped each block has landed.
    for (const BlockDescriptor& b : o.writes.frees) {
      (void)disks_->Free(b.disk, b.first_fragment, kFragmentsPerBlock);
    }
    return true;
  });
  DropLandedClaims();
}

void TransactionService::DropLandedClaims() {
  if (!log_.reset_pending()) claims_.ResetLanded(log_.generation());
}

bool TransactionService::LogHasRoomFor(const Txn& t) const {
  std::uint64_t need =
      TxnLog::kBatchOverhead + 2 * kRecordBytesBound +
      (kBlockSize + kRecordBytesBound) * t.tentative_pages.size() +
      kRecordBytesBound * t.to_delete.size();
  for (const auto& [fval, w] : t.tentative_ranges) {
    need += kRecordBytesBound + w.data.size();
  }
  return log_.BytesUsed() + pipeline_.PendingBytes() + need <=
         log_.Capacity();
}

Status TransactionService::Checkpoint() {
  std::scoped_lock lk(mu_);
  return CheckpointLocked(/*eager=*/true);
}

Status TransactionService::CheckpointLocked(bool eager) {
  // A failed redo keeps the log as it is until Recover() settles it. After
  // failed forces, a checkpoint whose reset lands settles the log: their
  // commits were reported aborted and reached no cache, and no recovery
  // sees past the reset. While the log's device is down nothing would.
  const bool settles = doubt_ == Doubt::kForce;
  if (doubt_ == Doubt::kRedo ||
      (settles && log_disk_->stable_device().crashed())) {
    return {ErrorCode::kUnavailable,
            "checkpoint: the intention log awaits recovery"};
  }
  if (!settles && owed_.empty() && log_.BytesUsed() == 0 && unsettled_ == 0) {
    // Nothing logged or in flight: at most the last reset to land.
    const Status reset = eager ? log_.ForceReset() : OkStatus();
    DropLandedClaims();
    return reset;
  }
  pipeline_.FlushWriteBehind();
  if (!owed_.empty()) {
    return {ErrorCode::kUnavailable,
            "checkpoint: the write-behind did not land"};
  }
  // The blocks the write-behind freed, and the allocations the log's redo
  // would re-claim, reach the stored bitmaps before the log lets go.
  if (bitmaps_dirty_) {
    RHODOS_RETURN_IF_ERROR(PersistBitmaps());
    bitmaps_dirty_ = false;
  }
  // A commit in flight keeps the log as it is: its records may be forced
  // and not yet redone.
  if (unsettled_ > 0 || pipeline_.HasPending()) {
    return {ErrorCode::kUnavailable, "checkpoint: a commit is in flight"};
  }
  log_.ResetLazily();
  const Status reset = eager || settles ? log_.ForceReset() : OkStatus();
  if (settles && reset.ok()) {
    // The failed commits' shadow blocks are free again.
    doubt_ = Doubt::kNone;
    for (const IntentionRecord& r : doubtful_) {
      (void)disks_->Free(r.new_disk, r.new_fragment, kFragmentsPerBlock);
    }
    if (!doubtful_.empty()) bitmaps_dirty_ = !PersistBitmaps().ok();
    doubtful_.clear();
  }
  DropLandedClaims();
  return reset;
}

Status TransactionService::PersistBitmaps() {
  // One lane per disk: each bitmap goes main then mirror on its own disk.
  sim::PerDeviceFanOut<disk::DiskServer*, disk::DiskServer*> lanes;
  for (const auto& server : disks_->disks()) {
    lanes.Add(server.get(), server.get());
  }
  return lanes.Run(log_disk_->clock(),
                   [](disk::DiskServer* server,
                      const std::vector<disk::DiskServer*>&) {
                     return server->PersistMetadata();
                   });
}

void TransactionService::DeleteCreated(const Txn& t) {
  if (t.created.empty() || !CheckpointLocked(/*eager=*/true).ok()) return;
  for (FileId f : t.created) (void)files_(f).Delete(f);
}

void TransactionService::Finish(TxnId id) {
  locks_.ReleaseAll(id);
  locks_.ClearBroken(id);
  txns_.erase(id);
}

Status TransactionService::End(TxnId txn) {
  obs::SpanScope span(obs::TracerOf(obs_), "txn", "end");
  std::unique_lock lk(mu_);
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return {ErrorCode::kTxnNotActive, "tend on unknown transaction"};
  }
  // The reference stays valid across the unlock below: unordered_map never
  // invalidates references on rehash, and only our own Finish() erases the
  // entry (the phase guard keeps Abort/End reentrancy out).
  Txn& t = it->second;
  if (t.phase != TxnPhase::kLocking) {
    return {ErrorCode::kTxnNotActive, "tend while a commit is in flight"};
  }
  if (locks_.WasBroken(txn)) {
    // The timeout rule already broke our locks: abort instead of commit.
    ++stats_.aborts_broken;
    DeleteCreated(t);
    Finish(txn);
    return {ErrorCode::kTxnAborted, "aborted by lock timeout at commit"};
  }

  obs::SpanScope commit_span(obs::TracerOf(obs_), "txn", "commit");
  obs::LatencyScope lat(obs_, "txn.commit_latency_ns");
  // A log that may not take this commit's records is checkpointed first;
  // the next force lands its reset.
  if (!LogHasRoomFor(t)) (void)CheckpointLocked(/*eager=*/false);
  CommitPlan plan;
  const Status staged = StageCommit(txn, t, &plan);
  if (!staged.ok()) {
    // Nothing is promised yet — the commit record was never appended (or
    // could not be): a plain abort.
    ++stats_.aborts_explicit;
    DeleteCreated(t);
    Finish(txn);
    return staged;
  }
  if (!plan.has_effects) {
    ++stats_.commits;
    Finish(txn);
    return OkStatus();
  }

  // THE COMMIT POINT, pipelined: block — with mu_ RELEASED, so concurrent
  // committers keep staging and pile onto the same batch — until the force
  // covering our commit record returns. Our locks stay held throughout:
  // no other transaction may observe state whose commit record could
  // still be lost.
  ++unsettled_;
  lk.unlock();
  const Status durable = pipeline_.AwaitDurable(plan.commit_ticket);
  lk.lock();

  if (!durable.ok()) {
    // The force failed, so the batch may be wholly or partially torn on
    // stable storage: whether our commit record survived is unknowable
    // here. Report an abort, but keep everything recovery needs to
    // arbitrate — created files stay (a salvaged commit record must find
    // them) and the log holds until Recover() replays or discards us or a
    // checkpoint resets it; a basic put the log's claims cover is refused
    // until then.
    --unsettled_;
    ++stats_.aborts_explicit;
    doubt_ = std::max(doubt_, Doubt::kForce);
    for (IntentionRecord& r : plan.records) {
      if (r.kind == IntentionKind::kShadowMap) doubtful_.push_back(std::move(r));
    }
    Finish(txn);
    return durable;
  }
  ++stats_.commits;
  const Status applied = ApplyCommit(t, plan);
  --unsettled_;
  if (!applied.ok()) {
    // The commit point is durable but its redo failed: the transaction IS
    // committed; recovery must redo it from the log.
    doubt_ = Doubt::kRedo;
  }
  Finish(txn);
  return applied;
}

Status TransactionService::Abort(TxnId txn) {
  obs::SpanScope span(obs::TracerOf(obs_), "txn", "abort");
  std::scoped_lock lk(mu_);
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return {ErrorCode::kTxnNotActive, "tabort on unknown transaction"};
  }
  if (it->second.phase != TxnPhase::kLocking) {
    // End() is mid-commit (possibly awaiting durability with mu_
    // released); its outcome is already decided.
    return {ErrorCode::kTxnNotActive, "tabort while a commit is in flight"};
  }
  // Nothing of a transaction in its locking phase is in the log.
  it->second.phase = TxnPhase::kUnlocking;
  DeleteCreated(it->second);
  if (locks_.WasBroken(txn)) {
    ++stats_.aborts_broken;
  } else {
    ++stats_.aborts_explicit;
  }
  Finish(txn);
  return OkStatus();
}

// --- recovery ------------------------------------------------------------------------

TransactionService::Remap TransactionService::RemapState(
    const IntentionRecord& r) {
  // A table that no longer loads means the file is gone.
  auto loc = files_(r.file).LocateBlock(r.file, r.block_index);
  if (!loc.ok()) return Remap::kNoFile;
  return loc->disk == r.new_disk && loc->first_fragment == r.new_fragment
             ? Remap::kApplied
             : Remap::kPending;
}

Result<bool> TransactionService::ShadowsLanded(
    const std::vector<IntentionRecord>& records, const PageSet& later,
    const std::set<std::uint64_t>& deleted) {
  std::vector<std::uint8_t> copy(kBlockSize);
  for (const IntentionRecord& r : records) {
    if (r.kind != IntentionKind::kShadowMap) continue;
    if (r.data.size() != kShadowChecksumBytes &&
        r.data.size() != kShadowDataBytes) {
      return Error{ErrorCode::kMediaError,
                   "shadow-map record of transaction " +
                       std::to_string(r.txn.value) + " carries " +
                       std::to_string(r.data.size()) + " bytes"};
    }
    // A later commit overwrote the page (and may have freed this block),
    // or a remap already in place was applied after an acknowledged flush
    // (the page may have been rewritten in place since).
    if (deleted.contains(r.file.value) ||
        later.contains({r.file.value, r.block_index}) ||
        RemapState(r) != Remap::kPending) {
      continue;
    }
    Deserializer in{r.data};
    const std::uint64_t expected = in.U64();
    RHODOS_ASSIGN_OR_RETURN(disk::DiskServer * server, disks_->Get(r.new_disk));
    for (const disk::ReadSource source :
         {disk::ReadSource::kMain, disk::ReadSource::kStable}) {
      RHODOS_RETURN_IF_ERROR(
          server->GetBlock(r.new_fragment, kFragmentsPerBlock, copy, source));
      if (disk::BlockChecksum(copy) != expected) return false;
    }
  }
  return true;
}

Status TransactionService::Recover() {
  obs::SpanScope span(obs::TracerOf(obs_), "txn", "recover");
  std::scoped_lock lk(mu_);
  // Anything still in the pipeline predates the crash being recovered
  // from and was never forced, and whatever the write-behind owed, the log
  // redoes: the persistent image is the only truth. The blocks the
  // write-behind was to free stand with the ones the log's remaps replaced.
  pipeline_.DiscardPending();
  std::vector<BlockDescriptor> replaced;
  for (const Owed& o : owed_) {
    replaced.insert(replaced.end(), o.writes.frees.begin(),
                    o.writes.frees.end());
  }
  owed_.clear();
  struct TxnTrace {
    TxnStatus final_status = TxnStatus::kTentative;
    std::uint64_t commit_at = 0;  // scan position of the commit record
    std::vector<IntentionRecord> records;
  };
  std::map<std::uint64_t, TxnTrace> traces;
  std::uint64_t position = 0;
  RHODOS_RETURN_IF_ERROR(log_.Scan([&](const IntentionRecord& r) {
    TxnTrace& trace = traces[r.txn.value];
    if (r.kind == IntentionKind::kStatus) {
      trace.final_status = r.status;
      trace.commit_at = position;
    } else if (r.kind != IntentionKind::kBegin) {
      trace.records.push_back(r);
    }
    ++position;
  }));
  // A commit whose force failed may have left none of its records in the
  // log, but its shadow blocks are allocated in this instance all the same.
  for (IntentionRecord& r : doubtful_) {
    TxnTrace& trace = traces[r.txn.value];
    const bool logged = std::any_of(
        trace.records.begin(), trace.records.end(),
        [&r](const IntentionRecord& l) {
          return l.kind == IntentionKind::kShadowMap &&
                 l.new_disk == r.new_disk && l.new_fragment == r.new_fragment;
        });
    if (!logged) trace.records.push_back(std::move(r));
  }
  doubtful_.clear();
  // Commits in the order their records reached the log, which is the order
  // strict 2PL serialized them in.
  std::vector<TxnTrace*> commits;
  for (auto& [txn_value, trace] : traces) {
    if (trace.final_status == TxnStatus::kCommit) commits.push_back(&trace);
  }
  std::sort(commits.begin(), commits.end(),
            [](const TxnTrace* a, const TxnTrace* b) {
              return a->commit_at < b->commit_at;
            });

  // A commit's shadow pages went to disk beside its force, not before it,
  // so a durable commit record does not prove they landed. Newest first, a
  // commit whose pages do not all read back intact on both copies is
  // discarded like a tentative one; pages a later standing commit
  // overwrites are not checked. Every check runs before anything is redone
  // or freed: a read error fails recovery with the disks untouched.
  PageSet later;
  std::set<std::uint64_t> deleted;
  for (auto it = commits.rbegin(); it != commits.rend(); ++it) {
    TxnTrace& trace = **it;
    RHODOS_ASSIGN_OR_RETURN(bool landed,
                            ShadowsLanded(trace.records, later, deleted));
    if (!landed) {
      trace.final_status = TxnStatus::kAbort;
      continue;
    }
    for (const IntentionRecord& r : trace.records) {
      if (r.kind == IntentionKind::kDeleteFile) {
        deleted.insert(r.file.value);
      } else if (r.kind == IntentionKind::kRedoRange) {
        for (std::uint64_t b = r.offset / kBlockSize;
             b * kBlockSize < r.offset + r.data.size(); ++b) {
          later.insert({r.file.value, b});
        }
      } else {
        later.insert({r.file.value, r.block_index});
      }
    }
  }

  // Not committed, or committed over pages that did not land: discard.
  // Shadow blocks staged before the crash are returned to the free pool
  // (harmless if the allocation was never persisted); a block the file
  // already maps is the file's.
  std::vector<FileId> files;
  for (auto& [txn_value, trace] : traces) {
    for (const IntentionRecord& r : trace.records) {
      if (!deleted.contains(r.file.value) &&
          std::find(files.begin(), files.end(), r.file) == files.end()) {
        files.push_back(r.file);
      }
    }
    if (trace.final_status == TxnStatus::kCommit) continue;
    for (const IntentionRecord& r : trace.records) {
      if (r.kind != IntentionKind::kShadowMap ||
          RemapState(r) == Remap::kApplied) {
        continue;
      }
      (void)disks_->Free(r.new_disk, r.new_fragment, kFragmentsPerBlock);
    }
    ++stats_.recovered_discarded;
  }

  // Every block a recovered table maps is allocated: the bitmap that held
  // an allocation the write-behind made (a growth, an indirect block) may
  // not have landed with the table.
  for (FileId file : files) {
    auto runs = files_(file).FileRuns(file);
    auto indirect = files_(file).IndirectBlockLocations(file);
    if (!runs.ok() || !indirect.ok()) continue;
    runs->insert(runs->end(), indirect->begin(), indirect->end());
    for (const BlockDescriptor& run : *runs) {
      auto server = disks_->Get(run.disk);
      if (!server.ok()) continue;
      for (std::uint32_t b = 0; b < std::max<std::uint32_t>(
                                        run.contiguous_count, 1);
           ++b) {
        (void)(*server)->AllocateSpecific(
            run.first_fragment + b * kFragmentsPerBlock, kFragmentsPerBlock);
      }
    }
  }

  // Redo every standing commit in commit order, into the owners' caches.
  // A file a standing commit deletes takes only its delete. The records
  // claim their files and, with a commit, the bitmaps its redo changes.
  claims_.Claim(FileId{}, !commits.empty(), log_.generation());
  {
    std::deque<FileService::LoggedApply> logged;
    std::vector<FileService*> owners;
    for (const auto& [txn_value, trace] : traces) {
      for (const IntentionRecord& r : trace.records) {
        claims_.Claim(r.file, /*bitmaps=*/false, log_.generation());
        FileService* owner = &files_(r.file);
        if (std::find(owners.begin(), owners.end(), owner) == owners.end()) {
          owners.push_back(owner);
          logged.emplace_back(*owner);
        }
      }
    }
    for (TxnTrace* trace : commits) {
      if (trace->final_status != TxnStatus::kCommit) continue;
      std::vector<IntentionRecord> records;
      for (IntentionRecord& r : trace->records) {
        if (r.kind == IntentionKind::kShadowMap &&
            r.data.size() == kShadowDataBytes) {
          Deserializer in{r.data};
          (void)in.U64();
          const DiskId disk{in.U32()};
          replaced.push_back(BlockDescriptor{disk, in.U64(), 1});
        }
        if (r.kind == IntentionKind::kDeleteFile ||
            !deleted.contains(r.file.value)) {
          records.push_back(std::move(r));
        }
      }
      for (const RedoStep step :
           {RedoStep::kWrites, RedoStep::kSizes, RedoStep::kDeletes}) {
        RHODOS_RETURN_IF_ERROR(Redo(records, step));
      }
      ++stats_.recovered_redone;
    }
    // A table's two copies go out at once, and a crash can land one: a
    // table whose copies differ is stored again.
    for (FileId file : files) {
      if (files_(file).GetAttributes(file).ok()) {
        RHODOS_RETURN_IF_ERROR(files_(file).ReconcileTableCopies(file));
      }
    }
  }
  // Land it all. The blocks the redo released stand with the ones the
  // log's remaps replaced: each is freed below if no file maps it.
  for (FileId file : files) {
    FileService& owner = files_(file);
    RHODOS_ASSIGN_OR_RETURN(file::LoggedWrites writes,
                            owner.TakeLoggedWrites(file));
    replaced.insert(replaced.end(), writes.frees.begin(), writes.frees.end());
    writes.frees.clear();
    if (!writes.empty()) owed_.push_back(Owed{&owner, std::move(writes), {}});
  }
  pipeline_.FlushWriteBehind();
  if (!owed_.empty()) {
    doubt_ = Doubt::kRedo;
    return {ErrorCode::kUnavailable, "recovery: a redo write did not land"};
  }
  // A replaced block stays allocated until the table that drops it lands,
  // and the bitmap that frees it may not have: free each one no file the
  // log names maps. No file the log does not name maps one: while the log
  // held the record, an allocation checkpointed first (file::LogClaims),
  // and only a landed reset ends the claim.
  std::vector<BlockDescriptor> mapped;
  for (FileId file : files) {
    RHODOS_ASSIGN_OR_RETURN(auto runs, files_(file).FileRuns(file));
    RHODOS_ASSIGN_OR_RETURN(auto indirect,
                            files_(file).IndirectBlockLocations(file));
    mapped.insert(mapped.end(), runs.begin(), runs.end());
    mapped.insert(mapped.end(), indirect.begin(), indirect.end());
  }
  for (const BlockDescriptor& b : replaced) {
    const bool in_use = std::any_of(
        mapped.begin(), mapped.end(), [&b](const BlockDescriptor& run) {
          return run.disk == b.disk && b.first_fragment >= run.first_fragment &&
                 b.first_fragment < run.first_fragment +
                                        static_cast<FragmentIndex>(
                                            run.contiguous_count) *
                                            kFragmentsPerBlock;
        });
    auto server = disks_->Get(b.disk);
    if (!in_use && server.ok() &&
        (*server)->IsFragmentAllocated(b.first_fragment)) {
      (void)disks_->Free(b.disk, b.first_fragment, kFragmentsPerBlock);
    }
  }
  RHODOS_RETURN_IF_ERROR(PersistBitmaps());
  bitmaps_dirty_ = false;
  doubt_ = Doubt::kNone;
  (void)log_.Truncate();
  DropLandedClaims();
  return OkStatus();
}

}  // namespace rhodos::txn
