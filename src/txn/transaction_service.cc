#include "txn/transaction_service.h"

#include <algorithm>
#include <cstring>

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
  // While a quiescent log reset is pending, the log still holds applied
  // commits that a recovery would redo. Any write to any disk could be
  // newer than those commits, so every put forces the reset first. A
  // failed force leaves it pending and lets the write through, the same
  // exposure as an eager reset that fails. The barrier must not take mu_:
  // the service's own writes (a commit's Redo, a create) pass the barrier
  // with mu_ held.
  for (const auto& server : disks_->disks()) {
    server->SetWriteBarrier([this] { (void)log_.ForceReset(); });
  }
}

TransactionService::~TransactionService() {
  for (const auto& server : disks_->disks()) {
    server->SetWriteBarrier({});
  }
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
  return files_(file).SetLockLevel(file, level);
}

namespace {

// What a kShadowMap record carries in `data`: the checksum of its page.
std::vector<std::uint8_t> PageChecksum(std::span<const std::uint8_t> page) {
  Serializer out;
  out.U64(disk::BlockChecksum(page));
  return out.buffer();
}

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
  t.logged_begin = true;

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
      // Shadow page: log only the remap intention and the page's checksum.
      // The image itself rides the commit record to its fresh block, in
      // the flush that forces the record; recovery redoes the remap only
      // if the block reads back with this checksum.
      RHODOS_RETURN_IF_ERROR(append(IntentionRecord{
          IntentionKind::kShadowMap, id, file, page, final_size,
          shadow->placement.disk, shadow->placement.first,
          TxnStatus::kTentative, PageChecksum(image)}));
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
  // resolves on.
  return append(IntentionRecord{IntentionKind::kStatus, id, {}, 0, 0, {}, 0,
                                TxnStatus::kCommit, {}},
                std::move(runs));
}

Result<std::optional<DiskId>> TransactionService::ApplyDisk(
    std::span<const IntentionRecord> records, FileId file) {
  using Lane = std::optional<DiskId>;
  // Shared runs commit through the snapshot journal on disk 0.
  FileService& owner = files_(file);
  RHODOS_ASSIGN_OR_RETURN(bool shared, owner.HasSharedRuns(file));
  if (shared) return Lane{};
  RHODOS_ASSIGN_OR_RETURN(std::uint64_t blocks, owner.BlockCount(file));
  RHODOS_ASSIGN_OR_RETURN(auto indirect, owner.IndirectBlockLocations(file));
  // The index table's fragment lives on the file's home disk; the table
  // may be loaded, and is stored if the apply changes it. Every other
  // block the apply reads or writes must be on that disk too.
  const DiskId home = file::FileDisk(file);
  bool one_disk = true;
  for (const auto& ib : indirect) one_disk = one_disk && ib.disk == home;
  auto add_block = [&](std::uint64_t block) -> Status {
    RHODOS_ASSIGN_OR_RETURN(file::BlockLocation loc,
                            owner.LocateBlock(file, block));
    one_disk = one_disk && loc.disk == home;
    return OkStatus();
  };
  std::size_t remaps = 0;
  for (const IntentionRecord& r : records) {
    if (r.file != file) continue;
    if (r.kind == IntentionKind::kShadowMap) {
      ++remaps;
    } else if (r.kind == IntentionKind::kRedoPage) {
      if (r.block_index >= blocks) return Lane{};  // grows the file
      RHODOS_RETURN_IF_ERROR(add_block(r.block_index));
    } else if (r.kind == IntentionKind::kRedoRange && !r.data.empty()) {
      const std::uint64_t last = (r.offset + r.data.size() - 1) / kBlockSize;
      if (last >= blocks) return Lane{};  // grows the file
      for (std::uint64_t b = r.offset / kBlockSize; b <= last; ++b) {
        RHODOS_RETURN_IF_ERROR(add_block(b));
      }
    }
  }
  // A remap can split a run into three; past the table's run capacity the
  // store would allocate an indirect block, possibly on another disk.
  RHODOS_ASSIGN_OR_RETURN(auto runs, owner.FileRuns(file));
  if (runs.size() + 2 * remaps >
      file::kDirectRuns + indirect.size() * file::kRunsPerIndirectBlock) {
    return Lane{};
  }
  return one_disk ? Lane{home} : Lane{};
}

Status TransactionService::Redo(std::span<const IntentionRecord> records,
                                RedoStep step,
                                const std::function<bool(FileId)>& selected) {
  auto chosen = [&](const IntentionRecord& r, IntentionKind kind) {
    return r.kind == kind && (!selected || selected(r.file));
  };
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
      // Per file, the remaps still to apply, with one table store. A file
      // whose remaps are all in place re-stores its table only where its
      // two copies differ: they go out at once, and a crash can land one.
      std::map<std::uint64_t, std::vector<file::BlockRebind>> remaps;
      for (const IntentionRecord& r : records) {
        if (chosen(r, IntentionKind::kShadowMap)) {
          const Remap state = RemapState(r);
          if (state == Remap::kNoFile) continue;
          claim(r.new_disk, r.new_fragment);
          auto& rebinds = remaps[r.file.value];
          if (state == Remap::kPending) {
            rebinds.push_back(
                file::BlockRebind{r.block_index, r.new_disk, r.new_fragment});
          }
          continue;
        }
        const bool page = chosen(r, IntentionKind::kRedoPage);
        if (!page && !chosen(r, IntentionKind::kRedoRange)) continue;
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
        if (!chosen(r, IntentionKind::kRedoPage)) continue;
        FileService& owner = files_(r.file);
        RHODOS_ASSIGN_OR_RETURN(std::uint64_t blocks,
                                owner.BlockCount(r.file));
        if (r.block_index >= blocks) {
          // Never past the final size: no later step shrinks a file.
          RHODOS_RETURN_IF_ERROR(owner.Resize(
              r.file, std::min(r.offset, (r.block_index + 1) * kBlockSize)));
        }
        RHODOS_RETURN_IF_ERROR(owner.WriteBlock(
            r.file, r.block_index, r.data, /*force_write_through=*/true));
      }
      for (const auto& [fval, rebinds] : remaps) {
        const FileId file{fval};
        FileService& owner = files_(file);
        RHODOS_RETURN_IF_ERROR(rebinds.empty()
                                   ? owner.ReconcileTableCopies(file)
                                   : owner.ReplaceBlocks(file, rebinds));
      }
      for (const IntentionRecord& r : records) {
        if (!chosen(r, IntentionKind::kRedoRange)) continue;
        FileService& owner = files_(r.file);
        auto n = owner.Write(r.file, r.offset, r.data);
        if (!n.ok()) return Error{n.error()};
        RHODOS_RETURN_IF_ERROR(owner.Sync(r.file));
      }
      return OkStatus();
    }
    case RedoStep::kSizes: {
      // Range writes set their own size. A file the commit deletes keeps
      // its size.
      std::map<std::uint64_t, std::uint64_t> sizes;
      for (const IntentionRecord& r : records) {
        if (chosen(r, IntentionKind::kRedoPage) ||
            chosen(r, IntentionKind::kShadowMap)) {
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
        if (chosen(r, IntentionKind::kDeleteFile) &&
            files_(r.file).GetAttributes(r.file).ok()) {
          RHODOS_RETURN_IF_ERROR(files_(r.file).Delete(r.file));
        }
      }
      return OkStatus();
  }
  return {ErrorCode::kInternal, "bad redo step"};
}

Status TransactionService::ApplyCommit(TxnId id, Txn& t, CommitPlan& plan) {
  // Make the changes permanent by redoing the commit's records, as
  // recovery would. Each file's page writes, shadow remaps and range
  // writes are an independent redo step, so files whose writes stay on one
  // disk run as one lane per disk, each lane owning its disk. A file that
  // grows, touches shared runs or spans disks writes serially afterwards.
  sim::PerDeviceFanOut<DiskId, FileId> lanes;
  std::unordered_set<FileId> serial;
  std::unordered_set<FileId> planned;
  for (const IntentionRecord& r : plan.records) {
    if (r.kind == IntentionKind::kDeleteFile ||
        !planned.insert(r.file).second) {
      continue;
    }
    RHODOS_ASSIGN_OR_RETURN(std::optional<DiskId> disk,
                            ApplyDisk(plan.records, r.file));
    if (disk.has_value()) {
      lanes.Add(*disk, r.file);
    } else {
      serial.insert(r.file);
    }
  }
  RHODOS_RETURN_IF_ERROR(lanes.Run(
      log_disk_->clock(), [&](DiskId, const std::vector<FileId>& files) {
        return Redo(plan.records, RedoStep::kWrites, [&files](FileId f) {
          return std::find(files.begin(), files.end(), f) != files.end();
        });
      }));
  RHODOS_RETURN_IF_ERROR(
      Redo(plan.records, RedoStep::kWrites,
           [&serial](FileId f) { return serial.contains(f); }));
  // Each remapped page's new block holds its image since the commit force:
  // keep that image cached. Inserting only now, outside the lanes, keeps
  // an eviction's write-back out of them.
  for (const IntentionRecord& r : plan.records) {
    if (r.kind != IntentionKind::kShadowMap) continue;
    RHODOS_RETURN_IF_ERROR(files_(r.file).CacheDurableBlock(
        r.file, r.block_index, t.tentative_pages.at({r.file.value,
                                                     r.block_index})));
  }
  RHODOS_RETURN_IF_ERROR(Redo(plan.records, RedoStep::kSizes));
  // Push any still-buffered blocks (e.g. zero-filled growth) and hard
  // table changes to the platter: a committed transaction's effects must
  // not sit in a volatile cache. Access counts bumped by the transaction's
  // reads and writes are not effects; they stay in memory like a close's.
  for (FileId file : t.touched) {
    if (t.to_delete.count(file) != 0) continue;
    RHODOS_RETURN_IF_ERROR(files_(file).Sync(file));
  }
  RHODOS_RETURN_IF_ERROR(Redo(plan.records, RedoStep::kDeletes));
  for (const auto& [fval, tech] : plan.technique) {
    if (tech == CommitTechnique::kWal) {
      ++stats_.wal_commits;
    } else {
      ++stats_.shadow_commits;
    }
  }

  // The completed record needs no acknowledgement: if it is lost, recovery
  // merely redoes an idempotent apply. It rides whatever batch flushes
  // next (or is discarded at the quiescent reset).
  auto completed = pipeline_.Append(
      IntentionRecord{IntentionKind::kStatus, id, {}, 0, 0, {}, 0,
                      TxnStatus::kCompleted, {}});
  if (!completed.ok()) return Error{completed.error()};
  return OkStatus();
}

void TransactionService::Finish(TxnId id) {
  locks_.ReleaseAll(id);
  locks_.ClearBroken(id);
  txns_.erase(id);
  // Checkpoint: with no transaction in flight every intention is resolved,
  // so the log can be reset (remove_intention in bulk) — UNLESS some commit
  // record was written whose changes were never fully applied (a disk died
  // mid-apply). That redo information must survive until Recover(). The
  // reset stays in memory: the next commit force, or the write barrier
  // before any other write, makes it durable.
  if (txns_.empty() && !log_needs_recovery_) {
    // Records still sitting in the pipeline at quiescence are completed /
    // abort markers nobody awaits; drop them with the log.
    pipeline_.DiscardPending();
    log_.ResetLazily();
  }
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
    if (t.logged_begin) {
      (void)pipeline_.Append(IntentionRecord{IntentionKind::kStatus, txn, {},
                                             0, 0, {}, 0, TxnStatus::kAbort,
                                             {}});
    }
    for (FileId f : t.created) (void)files_(f).Delete(f);
    Finish(txn);
    return {ErrorCode::kTxnAborted, "aborted by lock timeout at commit"};
  }

  obs::SpanScope commit_span(obs::TracerOf(obs_), "txn", "commit");
  obs::LatencyScope lat(obs_, "txn.commit_latency_ns");
  CommitPlan plan;
  const Status staged = StageCommit(txn, t, &plan);
  if (!staged.ok()) {
    // Nothing is promised yet — the commit record was never appended (or
    // could not be): a plain abort.
    ++stats_.aborts_explicit;
    for (FileId f : t.created) (void)files_(f).Delete(f);
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
  lk.unlock();
  const Status durable = pipeline_.AwaitDurable(plan.commit_ticket);
  lk.lock();

  if (!durable.ok()) {
    // The force failed, so the batch may be wholly or partially torn on
    // stable storage: whether our commit record survived is unknowable
    // here. Report an abort, but keep everything recovery needs to
    // arbitrate — created files stay (a salvaged commit record must find
    // them) and the log holds until Recover() replays or discards us.
    ++stats_.aborts_explicit;
    log_needs_recovery_ = true;
    Finish(txn);
    return durable;
  }
  ++stats_.commits;
  const Status applied = ApplyCommit(txn, t, plan);
  if (!applied.ok()) {
    // The commit point is durable but applying failed (e.g. a disk died):
    // the transaction IS committed; recovery must redo it from the log.
    log_needs_recovery_ = true;
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
  it->second.phase = TxnPhase::kUnlocking;
  if (it->second.logged_begin) {
    // Best-effort marker: if it never flushes, recovery discards the
    // transaction as tentative — the same outcome.
    (void)pipeline_.Append(IntentionRecord{IntentionKind::kStatus, txn, {}, 0,
                                           0, {}, 0, TxnStatus::kAbort, {}});
  }
  for (FileId f : it->second.created) (void)files_(f).Delete(f);
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
    const std::vector<IntentionRecord>& records) {
  std::vector<std::uint8_t> copy(kBlockSize);
  for (const IntentionRecord& r : records) {
    if (r.kind != IntentionKind::kShadowMap) continue;
    if (r.data.size() != 8) {
      return Error{ErrorCode::kMediaError,
                   "shadow-map record of transaction " +
                       std::to_string(r.txn.value) + " has a " +
                       std::to_string(r.data.size()) + "-byte checksum"};
    }
    // A remap already in place was applied after an acknowledged flush;
    // the page may have been rewritten in place since.
    if (RemapState(r) != Remap::kPending) continue;
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
  // Anything still in the pipeline predates the crash being recovered
  // from and was never forced; the persistent image is the only truth.
  pipeline_.DiscardPending();
  struct TxnTrace {
    TxnStatus final_status = TxnStatus::kTentative;
    std::vector<IntentionRecord> records;
  };
  std::map<std::uint64_t, TxnTrace> traces;
  RHODOS_RETURN_IF_ERROR(log_.Scan([&](const IntentionRecord& r) {
    TxnTrace& trace = traces[r.txn.value];
    if (r.kind == IntentionKind::kStatus) {
      trace.final_status = r.status;
    } else if (r.kind != IntentionKind::kBegin) {
      trace.records.push_back(r);
    }
  }));

  // A commit's shadow pages went to disk beside its force, not before it,
  // so a durable commit record does not prove they landed. A commit whose
  // pages do not all read back intact on both copies is discarded like a
  // tentative one. Every check runs before anything is redone or freed:
  // a read error fails recovery with the disks untouched.
  for (auto& [txn_value, trace] : traces) {
    if (trace.final_status != TxnStatus::kCommit) continue;
    RHODOS_ASSIGN_OR_RETURN(bool landed, ShadowsLanded(trace.records));
    if (!landed) trace.final_status = TxnStatus::kAbort;
  }

  for (auto& [txn_value, trace] : traces) {
    if (trace.final_status == TxnStatus::kCommit) {
      // Committed but the changes may not all have been applied: redo
      // them, step by step, as End applies them.
      for (const RedoStep step :
           {RedoStep::kWrites, RedoStep::kSizes, RedoStep::kDeletes}) {
        RHODOS_RETURN_IF_ERROR(Redo(trace.records, step));
      }
      // Nothing records the redo itself: redo is idempotent, and the
      // eager reset below removes the whole log once all are settled.
      ++stats_.recovered_redone;
    } else if (trace.final_status == TxnStatus::kTentative ||
               trace.final_status == TxnStatus::kAbort) {
      // Not committed, or committed over pages that did not land: discard.
      // Shadow blocks staged before the crash are returned to the free
      // pool (harmless if the allocation was never persisted); a block the
      // file already maps is the file's.
      for (const IntentionRecord& r : trace.records) {
        if (r.kind != IntentionKind::kShadowMap ||
            RemapState(r) == Remap::kApplied) {
          continue;
        }
        (void)disks_->Free(r.new_disk, r.new_fragment, kFragmentsPerBlock);
      }
      ++stats_.recovered_discarded;
    }
    // kCompleted: fully applied before the crash; nothing to do.
  }
  log_needs_recovery_ = false;
  (void)log_.Truncate();
  return OkStatus();
}

}  // namespace rhodos::txn
