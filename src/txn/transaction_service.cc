#include "txn/transaction_service.h"

#include <algorithm>
#include <cstring>

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
      pipeline_(&log_, log_disk_->clock(), &mu_, config.group_commit) {
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
  // ApplyCommit holds it while it writes.
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

Status TransactionService::ApplyWalPage(FileId file, std::uint64_t page,
                                        std::span<const std::uint8_t> data) {
  FileService& owner = files_(file);
  RHODOS_ASSIGN_OR_RETURN(std::uint64_t blocks, owner.BlockCount(file));
  if (page >= blocks) {
    RHODOS_RETURN_IF_ERROR(owner.Resize(file, (page + 1) * kBlockSize));
  }
  return owner.WriteBlock(file, page, data, /*force_write_through=*/true);
}

Status TransactionService::ApplyWalRange(FileId file, std::uint64_t offset,
                                         std::span<const std::uint8_t> data) {
  FileService& owner = files_(file);
  auto n = owner.Write(file, offset, data);
  if (!n.ok()) return Error{n.error()};
  return owner.Sync(file);
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
  // forced individually. The last append is the commit status record, so
  // the ticket left in the plan is the one End() must await.
  auto append = [&](const IntentionRecord& r) -> Status {
    auto ticket = pipeline_.Append(r);
    if (!ticket.ok()) return Error{ticket.error()};
    plan->commit_ticket = std::move(*ticket);
    return OkStatus();
  };

  RHODOS_RETURN_IF_ERROR(append(
      IntentionRecord{IntentionKind::kBegin, id, {}, 0, 0, {}, 0,
                      TxnStatus::kTentative, {}}));
  t.logged_begin = true;

  // Per-file technique choice and shadow staging.
  for (auto& [key, image] : t.tentative_pages) {
    const FileId file{key.first};
    const std::uint64_t page = key.second;
    auto tech_it = plan->technique.find(file.value);
    if (tech_it == plan->technique.end()) {
      RHODOS_ASSIGN_OR_RETURN(CommitTechnique tech, TechniqueFor(file));
      tech_it = plan->technique.emplace(file.value, tech).first;
    }
    FileService& owner = files_(file);
    RHODOS_ASSIGN_OR_RETURN(std::uint64_t blocks, owner.BlockCount(file));
    const std::uint64_t final_size =
        t.tentative_size.count(file) ? t.tentative_size[file] : 0;

    if (tech_it->second == CommitTechnique::kShadowPage && page < blocks) {
      // Shadow page: write the new image to a fresh block now (original +
      // stable — it must survive anything once the commit record lands),
      // and log only the remap intention. This data write precedes the
      // commit record's force, preserving write-ahead order. The block was
      // just allocated and nothing durable refers to it before that force,
      // so there is no old value for an ordered main-then-mirror write to
      // protect: both copies go out at once.
      RHODOS_ASSIGN_OR_RETURN(auto placement,
                              owner.AllocateShadowBlock(file));
      // It also skips the write barrier: the commit force that follows is
      // what makes a pending log reset durable, and if that force never
      // lands the block stays unreferenced.
      RHODOS_ASSIGN_OR_RETURN(disk::DiskServer * server,
                              disks_->Get(placement.disk));
      RHODOS_RETURN_IF_ERROR(server->PutFreshBlock(
          placement.first, kFragmentsPerBlock, image, disk::Barrier::kSkip));
      RHODOS_RETURN_IF_ERROR(append(IntentionRecord{
          IntentionKind::kShadowMap, id, file, page, final_size,
          placement.disk, placement.first, TxnStatus::kTentative, {}}));
      plan->shadows.push_back(CommitPlan::ShadowStage{file, page, placement});
    } else {
      // WAL: the page image itself is the intention (redo record). The
      // file's final size rides in `offset` so recovery can re-grow.
      RHODOS_RETURN_IF_ERROR(append(IntentionRecord{
          IntentionKind::kRedoPage, id, file, page, final_size, {}, 0,
          TxnStatus::kTentative, image}));
      ++stats_.pages_logged;
    }
  }
  for (const auto& [fval, w] : t.tentative_ranges) {
    RHODOS_RETURN_IF_ERROR(append(IntentionRecord{
        IntentionKind::kRedoRange, id, FileId{fval}, 0, w.offset, {}, 0,
        TxnStatus::kTentative, w.data}));
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

  // THE COMMIT POINT record: the transaction is durable once the batch
  // carrying this record reaches stable storage — which is exactly what
  // the ticket left in the plan resolves on.
  return append(IntentionRecord{IntentionKind::kStatus, id, {}, 0, 0, {}, 0,
                                TxnStatus::kCommit, {}});
}

bool TransactionService::IsShadowed(const CommitPlan& plan, FileId file,
                                    std::uint64_t page) {
  return std::any_of(plan.shadows.begin(), plan.shadows.end(),
                     [&](const CommitPlan::ShadowStage& s) {
                       return s.file == file && s.page == page;
                     });
}

Result<std::optional<DiskId>> TransactionService::ApplyDisk(
    const Txn& t, const CommitPlan& plan, FileId file) {
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
  for (const auto& [key, image] : t.tentative_pages) {
    if (key.first != file.value) continue;
    if (IsShadowed(plan, file, key.second)) {
      ++remaps;
      continue;
    }
    if (key.second >= blocks) return Lane{};  // grows the file
    RHODOS_RETURN_IF_ERROR(add_block(key.second));
  }
  for (const auto& [fval, w] : t.tentative_ranges) {
    if (fval != file.value || w.data.empty()) continue;
    const std::uint64_t last = (w.offset + w.data.size() - 1) / kBlockSize;
    if (last >= blocks) return Lane{};  // grows the file
    for (std::uint64_t b = w.offset / kBlockSize; b <= last; ++b) {
      RHODOS_RETURN_IF_ERROR(add_block(b));
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

template <typename Pred>
Status TransactionService::ApplyFileEffects(Txn& t, const CommitPlan& plan,
                                            Pred selected) {
  for (auto& [key, image] : t.tentative_pages) {
    const FileId file{key.first};
    if (selected(file) && !IsShadowed(plan, file, key.second)) {
      RHODOS_RETURN_IF_ERROR(ApplyWalPage(file, key.second, image));
    }
  }
  for (const CommitPlan::ShadowStage& s : plan.shadows) {
    if (!selected(s.file)) continue;
    RHODOS_RETURN_IF_ERROR(files_(s.file).ReplaceBlock(
        s.file, s.page, s.placement.disk, s.placement.first));
  }
  for (const auto& [fval, w] : t.tentative_ranges) {
    if (!selected(FileId{fval})) continue;
    RHODOS_RETURN_IF_ERROR(ApplyWalRange(FileId{fval}, w.offset, w.data));
  }
  return OkStatus();
}

Status TransactionService::ApplyCommit(TxnId id, Txn& t, CommitPlan& plan) {
  // Make the changes permanent. After the commit point each file's page
  // writes, shadow remaps and range writes are an independent redo step,
  // so files whose apply stays on one disk run as one lane per disk, each
  // lane owning its disk. A file that grows, touches shared runs or spans
  // disks applies serially afterwards.
  sim::PerDeviceFanOut<DiskId, FileId> lanes;
  std::unordered_set<FileId> serial;
  std::unordered_set<FileId> planned;
  auto plan_file = [&](FileId file) -> Status {
    if (!planned.insert(file).second) return OkStatus();
    RHODOS_ASSIGN_OR_RETURN(std::optional<DiskId> disk,
                            ApplyDisk(t, plan, file));
    if (disk.has_value()) {
      lanes.Add(*disk, file);
    } else {
      serial.insert(file);
    }
    return OkStatus();
  };
  for (const auto& [key, image] : t.tentative_pages) {
    RHODOS_RETURN_IF_ERROR(plan_file(FileId{key.first}));
  }
  for (const auto& [fval, w] : t.tentative_ranges) {
    RHODOS_RETURN_IF_ERROR(plan_file(FileId{fval}));
  }
  RHODOS_RETURN_IF_ERROR(lanes.Run(
      log_disk_->clock(), [&](DiskId, const std::vector<FileId>& files) {
        return ApplyFileEffects(t, plan, [&files](FileId f) {
          return std::find(files.begin(), files.end(), f) != files.end();
        });
      }));
  RHODOS_RETURN_IF_ERROR(ApplyFileEffects(
      t, plan, [&serial](FileId f) { return serial.contains(f); }));
  // Sizes recorded by the transaction (growth via ranges/pages). Applying
  // whole page images rounds the size up to a block boundary; settle on the
  // exact byte size the transaction recorded.
  for (const auto& [file, size] : t.tentative_size) {
    if (t.to_delete.count(file) != 0) continue;
    FileService& owner = files_(file);
    RHODOS_ASSIGN_OR_RETURN(FileAttributes attrs, owner.GetAttributes(file));
    if (attrs.size != size) {
      RHODOS_RETURN_IF_ERROR(owner.Resize(file, size));
    }
  }
  // Push any still-buffered blocks (e.g. zero-filled growth) and hard
  // table changes to the platter: a committed transaction's effects must
  // not sit in a volatile cache. Access counts bumped by the transaction's
  // reads and writes are not effects; they stay in memory like a close's.
  for (FileId file : t.touched) {
    if (t.to_delete.count(file) != 0) continue;
    RHODOS_RETURN_IF_ERROR(files_(file).Sync(file));
  }
  for (FileId file : t.to_delete) {
    RHODOS_RETURN_IF_ERROR(files_(file).Delete(file));
  }
  for (const auto& [fval, tech] : plan.technique) {
    if (tech == CommitTechnique::kWal) {
      ++stats_.wal_commits;
    } else {
      ++stats_.shadow_commits;
    }
  }
  if (!t.tentative_ranges.empty() && plan.technique.empty()) {
    ++stats_.wal_commits;  // pure record-mode commit
  }

  // The completed record needs no acknowledgement: if it is lost, recovery
  // merely redoes an idempotent apply. It rides whatever batch flushes
  // next (or is discarded at the quiescent reset).
  auto completed = pipeline_.Append(
      IntentionRecord{IntentionKind::kStatus, id, {}, 0, 0, {}, 0,
                      TxnStatus::kCompleted, {}});
  if (!completed.ok()) return Error{completed.error()};
  t.status = TxnStatus::kCompleted;
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
  t.status = TxnStatus::kCommit;
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
  it->second.status = TxnStatus::kAbort;
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

  for (auto& [txn_value, trace] : traces) {
    if (trace.final_status == TxnStatus::kCommit) {
      // Committed but the changes may not all have been applied: redo.
      for (const IntentionRecord& r : trace.records) {
        switch (r.kind) {
          case IntentionKind::kRedoPage:
            RHODOS_RETURN_IF_ERROR(ApplyWalPage(r.file, r.block_index,
                                                r.data));
            break;
          case IntentionKind::kRedoRange:
            RHODOS_RETURN_IF_ERROR(ApplyWalRange(r.file, r.offset, r.data));
            break;
          case IntentionKind::kShadowMap: {
            FileService& owner = files_(r.file);
            auto loc = owner.LocateBlock(r.file, r.block_index);
            if (loc.ok() && (loc->disk != r.new_disk ||
                             loc->first_fragment != r.new_fragment)) {
              // Re-claim the shadow block (its allocation may have been
              // lost with the unpersisted bitmap), then remap.
              auto server = disks_->Get(r.new_disk);
              if (server.ok()) {
                (void)(*server)->AllocateSpecific(r.new_fragment,
                                                  kFragmentsPerBlock);
              }
              RHODOS_RETURN_IF_ERROR(owner.ReplaceBlock(
                  r.file, r.block_index, r.new_disk, r.new_fragment));
            }
            break;
          }
          case IntentionKind::kDeleteFile:
            // Tolerant redo: the apply may have deleted the file already
            // (its table then reads as unparseable/scrubbed).
            (void)files_(r.file).Delete(r.file);
            break;
          default:
            break;
        }
        // Restore recorded final size.
        if (r.kind == IntentionKind::kRedoPage && r.offset > 0) {
          FileService& owner = files_(r.file);
          auto attrs = owner.GetAttributes(r.file);
          if (attrs.ok() && attrs->size < r.offset) {
            RHODOS_RETURN_IF_ERROR(owner.Resize(r.file, r.offset));
          }
        }
      }
      // Nothing records the redo itself: redo is idempotent, and the
      // eager reset below removes the whole log once all are settled.
      ++stats_.recovered_redone;
    } else if (trace.final_status == TxnStatus::kTentative ||
               trace.final_status == TxnStatus::kAbort) {
      // Never committed: discard. Shadow blocks staged before the crash are
      // returned to the free pool (harmless if the allocation was never
      // persisted).
      for (const IntentionRecord& r : trace.records) {
        if (r.kind == IntentionKind::kShadowMap) {
          auto server = disks_->Get(r.new_disk);
          if (server.ok()) {
            (void)(*server)->FreeFragments(r.new_fragment,
                                           kFragmentsPerBlock);
          }
        }
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
