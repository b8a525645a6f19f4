#include "agent/file_service_server.h"

#include <algorithm>

#include "sim/parallel.h"

namespace rhodos::agent {

namespace {

// Recent request tokens whose replies are kept for duplicate replay.
constexpr std::size_t kTokenCapacity = 1024;
// Expiry sweep cadence of the callback table (hygiene only: expired
// holders are also pruned lazily at grant and break time).
constexpr SimTime kCallbackSweepInterval = 500 * kSimMillisecond;
// The cache tier's pread load window: a file is hot when one window (or
// the one before it) saw hot_read_threshold preads.
constexpr SimTime kLoadWindow = 1 * kSimSecond;
// Candidates per redirect: the first is the power-of-two-choices pick, the
// rest a failover set the reader walks before the origin fallback.
constexpr std::size_t kRedirectPeers = 2;

// Seed of shard `shard`'s peer-sampling stream.
std::uint64_t PeerSamplingSeed(std::uint32_t shard) {
  return 0x9E3779B97F4A7C15ull + 0x9E37ull * (shard + 1);
}

sim::Payload ErrorReply(const Error& error) {
  Serializer out;
  EncodeError(out, error);
  return std::move(out).Take();
}

std::string_view OpName(FsOp op) {
  switch (op) {
    case FsOp::kCreate: return "create";
    case FsOp::kDelete: return "delete";
    case FsOp::kOpen: return "open";
    case FsOp::kPread: return "pread";
    case FsOp::kGetAttr: return "getattr";
    case FsOp::kResize: return "resize";
    case FsOp::kPwriteVec: return "pwrite";
    case FsOp::kCallbackBreak: return "cb-break";
    case FsOp::kCallbackRenew: return "cb-renew";
    case FsOp::kSnapshot: return "snapshot";
    case FsOp::kClone: return "clone";
    case FsOp::kPeerRead: return "peer-read";
  }
  return "unknown";
}

}  // namespace

FileServiceServer::FileServiceServer(file::FileService* service,
                                     sim::MessageBus* bus, std::string address,
                                     CallbackConfig callback,
                                     CacheTierConfig cache_tier)
    : service_(service),
      bus_(bus),
      address_(std::move(address)),
      cb_config_(callback),
      ct_config_(cache_tier),
      rng_state_(PeerSamplingSeed(service->config().shard) | 1) {
  bus_->RegisterService(
      address_, [this](std::uint32_t opcode,
                       std::span<const std::uint8_t> request) {
        return Handle(opcode, request);
      });
  // Hooking mutations at the service (not the RPC handlers) means every
  // mutation path — including transaction commits and replication repair
  // that bypass this adapter — revokes callbacks before acknowledging.
  service_->SetMutationListener(
      [this](FileId file, std::uint64_t version) {
        OnMutation(file, version);
      });
  service_->SetCrashListener([this] { OnServiceCrash(); });
}

FileServiceServer::~FileServiceServer() {
  bus_->UnregisterService(address_);
  service_->SetMutationListener(nullptr);
  service_->SetCrashListener(nullptr);
}

std::size_t FileServiceServer::CallbackHolderCount() const {
  std::size_t n = 0;
  const SimTime now = service_->clock()->Now();
  for (const auto& [file, holders] : callbacks_) {
    for (const Holder& h : holders) {
      if (h.expiry > now) ++n;
    }
  }
  return n;
}

std::size_t FileServiceServer::HotFileCount() const {
  if (!ct_config_.enabled || ct_config_.hot_read_threshold == 0) return 0;
  const SimTime now = service_->clock()->Now();
  std::size_t n = 0;
  for (const auto& [file, load] : read_load_) {
    // A stale window (no reads for over a full window) is cold regardless
    // of its recorded counts.
    if (now - load.window_start >= 2 * kLoadWindow) continue;
    if (load.count >= ct_config_.hot_read_threshold ||
        load.prev >= ct_config_.hot_read_threshold) {
      ++n;
    }
  }
  return n;
}

std::uint64_t FileServiceServer::NextRand() {
  // xorshift64: deterministic per-seed peer sampling, independent of any
  // global RNG state so storms replay exactly.
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 7;
  rng_state_ ^= rng_state_ << 17;
  return rng_state_;
}

bool FileServiceServer::NoteReadLoad(FileId file) {
  if (!ct_config_.enabled || ct_config_.hot_read_threshold == 0) return false;
  const SimTime now = service_->clock()->Now();
  ReadLoad& load = read_load_[file.value];
  if (now - load.window_start >= kLoadWindow) {
    // Roll forward: the just-closed window becomes `prev` when it was the
    // immediately preceding one, else the file idled and both reset.
    load.prev = (now - load.window_start < 2 * kLoadWindow) ? load.count : 0;
    load.count = 0;
    load.window_start = now - (now - load.window_start) % kLoadWindow;
  }
  ++load.count;
  return load.count >= ct_config_.hot_read_threshold ||
         load.prev >= ct_config_.hot_read_threshold;
}

void FileServiceServer::NoteHeldBlocks(FileId file, const std::string& cb,
                                       std::uint64_t first_block,
                                       std::uint64_t end_block) {
  if (cb.empty() || end_block <= first_block) return;
  auto it = callbacks_.find(file.value);
  if (it == callbacks_.end()) return;
  for (Holder& h : it->second) {
    if (h.address != cb) continue;
    // Insert then coalesce with neighbours (ranges stay disjoint+sorted).
    auto [rit, inserted] = h.blocks.emplace(first_block, end_block);
    if (!inserted) {
      rit->second = std::max(rit->second, end_block);
    }
    if (rit != h.blocks.begin()) {
      auto prev = std::prev(rit);
      if (prev->second >= rit->first) {
        prev->second = std::max(prev->second, rit->second);
        h.blocks.erase(rit);
        rit = prev;
      }
    }
    auto next = std::next(rit);
    while (next != h.blocks.end() && rit->second >= next->first) {
      rit->second = std::max(rit->second, next->second);
      next = h.blocks.erase(next);
    }
    return;
  }
}

std::vector<std::string> FileServiceServer::PickPeers(
    FileId file, const std::string& requester, std::uint64_t first_block,
    std::uint64_t end_block) {
  std::vector<std::string> picked;
  auto it = callbacks_.find(file.value);
  if (it == callbacks_.end()) return picked;
  const SimTime now = service_->clock()->Now();
  std::vector<Holder*> candidates;
  for (Holder& h : it->second) {
    if (h.expiry <= now || h.address == requester) continue;
    // The holder must (be believed to) cache the whole requested range:
    // one covering range, since ranges are coalesced.
    auto rit = h.blocks.upper_bound(first_block);
    if (rit == h.blocks.begin()) continue;
    --rit;
    if (rit->second < end_block) continue;
    candidates.push_back(&h);
  }
  const std::size_t want = std::min(kRedirectPeers, candidates.size());
  for (std::size_t i = 0; i < want; ++i) {
    // Power-of-two-choices: sample two remaining candidates, take the one
    // with fewer redirects assigned. With one candidate left, take it.
    std::size_t a = NextRand() % candidates.size();
    std::size_t b = NextRand() % candidates.size();
    std::size_t choice =
        candidates[a]->serves_assigned <= candidates[b]->serves_assigned ? a
                                                                         : b;
    Holder* peer = candidates[choice];
    if (picked.empty()) ++peer->serves_assigned;  // the primary serves
    picked.push_back(peer->address);
    candidates.erase(candidates.begin() +
                     static_cast<std::ptrdiff_t>(choice));
    if (candidates.empty()) break;
  }
  return picked;
}

SimTime FileServiceServer::Grant(FileId file, const std::string& cb) {
  if (cb.empty()) return 0;
  const SimTime now = service_->clock()->Now();
  auto& holders = callbacks_[file.value];
  std::erase_if(holders, [&](const Holder& h) {
    if (h.expiry > now) return false;
    ++stats_.callback_expired;
    return true;
  });
  const SimTime expiry = now + cb_config_.lease_ns;
  ++stats_.callback_grants;
  for (Holder& h : holders) {
    if (h.address == cb) {
      h.expiry = expiry;
      return expiry;
    }
  }
  holders.push_back(Holder{cb, expiry, {}, 0});
  return expiry;
}

void FileServiceServer::OnMutation(FileId file, std::uint64_t version) {
  // Cheap early-out: transaction commits on real threads reach this hook;
  // when no promises are outstanding there must be nothing to touch.
  if (callbacks_.empty() && grace_until_ == 0) return;
  SimClock* clock = service_->clock();
  if (grace_until_ > clock->Now()) {
    // Crash grace: the table that knew who held promises is gone, so the
    // mutation waits until every pre-crash lease has provably expired.
    ++stats_.callback_grace_waits;
    clock->AdvanceTo(grace_until_);
  }
  if (grace_until_ != 0 && clock->Now() >= grace_until_) grace_until_ = 0;
  auto it = callbacks_.find(file.value);
  if (it == callbacks_.end()) return;
  const SimTime now = clock->Now();
  std::vector<Holder> notify;
  std::vector<Holder> keep;
  for (Holder& h : it->second) {
    if (h.address == current_requester_) {
      // The writer itself: its promise survives — it learns the new
      // version token from the mutation's own reply.
      keep.push_back(std::move(h));
    } else if (h.expiry <= now) {
      ++stats_.callback_expired;
    } else {
      notify.push_back(std::move(h));
    }
  }
  if (keep.empty()) {
    callbacks_.erase(it);
  } else {
    it->second = std::move(keep);
  }
  if (notify.empty()) return;
  // Break-before-reply: these calls complete before the mutating handler
  // assembles its reply, so no acknowledged write can race a stale read.
  const sim::Payload body = CallbackBreak{file, version}.Encode();
  // Breaks to distinct holders travel in parallel; the writer pays the
  // slowest round trip (plus per-lane dispatch), not the sum.
  sim::ParallelSection section(clock);
  for (const Holder& h : notify) {
    section.BeginLane();
    auto r = bus_->Call(h.address,
                        static_cast<std::uint32_t>(FsOp::kCallbackBreak), body,
                        address_);
    if (r.ok()) {
      ++stats_.callback_breaks;
    } else {
      // Undeliverable (partition, crashed agent): the promise cannot be
      // revoked, so the writer waits out the holder's lease — bounded by
      // lease_ns, the staleness bound the holder was promised.
      ++stats_.callback_break_failures;
      clock->AdvanceTo(h.expiry);
    }
    section.EndLane();
  }
  section.Commit();
}

void FileServiceServer::OnServiceCrash() {
  SimTime max_expiry = 0;
  for (const auto& [file, holders] : callbacks_) {
    for (const Holder& h : holders) {
      max_expiry = std::max(max_expiry, h.expiry);
    }
  }
  callbacks_.clear();
  grace_until_ = std::max(grace_until_, max_expiry);
}

void FileServiceServer::SweepExpired() {
  const SimTime now = service_->clock()->Now();
  if (now < next_sweep_) return;
  next_sweep_ = now + kCallbackSweepInterval;
  for (auto it = callbacks_.begin(); it != callbacks_.end();) {
    std::erase_if(it->second, [&](const Holder& h) {
      if (h.expiry > now) return false;
      ++stats_.callback_expired;
      return true;
    });
    if (it->second.empty()) {
      it = callbacks_.erase(it);
    } else {
      ++it;
    }
  }
}

const sim::Payload* FileServiceServer::FindToken(std::uint64_t token) const {
  auto it = token_replies_.find(token);
  return it == token_replies_.end() ? nullptr : &it->second;
}

void FileServiceServer::RememberToken(std::uint64_t token,
                                      sim::Payload reply) {
  if (token_replies_.count(token) != 0) return;
  token_replies_.emplace(token, std::move(reply));
  token_order_.push_back(token);
  while (token_order_.size() > kTokenCapacity) {
    token_replies_.erase(token_order_.front());
    token_order_.pop_front();
  }
}

sim::Payload FileServiceServer::Handle(std::uint32_t opcode,
                                       std::span<const std::uint8_t> request) {
  ++stats_.requests;
  SweepExpired();
  obs::SpanScope span(obs::TracerOf(bus_->observability()), "service",
                      OpName(static_cast<FsOp>(opcode)));
  sim::Payload reply = Dispatch(opcode, request);
  // The writer is spared only its own mutation's break: a mutation that
  // reaches the service later by another path (a commit, a repair) breaks
  // every holder.
  current_requester_.clear();
  return reply;
}

sim::Payload FileServiceServer::Dispatch(
    std::uint32_t opcode, std::span<const std::uint8_t> request) {
  switch (static_cast<FsOp>(opcode)) {
    case FsOp::kCreate: return HandleCreate(request);
    case FsOp::kDelete: return HandleDelete(request);
    case FsOp::kOpen: return HandleOpen(request);
    case FsOp::kPread: return HandlePread(request);
    case FsOp::kGetAttr: return HandleGetAttr(request);
    case FsOp::kResize: return HandleResize(request);
    case FsOp::kPwriteVec: return HandlePwriteVec(request);
    case FsOp::kCallbackRenew: return HandleRenew(request);
    case FsOp::kSnapshot:
    case FsOp::kClone: return HandleCapture(static_cast<FsOp>(opcode),
                                            request);
    case FsOp::kCallbackBreak: break;  // server->agent only
    case FsOp::kPeerRead: break;       // agent->agent only
  }
  return ErrorReply({ErrorCode::kNotSupported, "unknown opcode"});
}

sim::Payload FileServiceServer::HandleCreate(
    std::span<const std::uint8_t> body) {
  auto req = CreateRequest::Decode(body);
  if (!req.ok()) return ErrorReply(req.error());
  if (const sim::Payload* replay = FindToken(req->token)) {
    ++stats_.duplicate_replays;
    return *replay;
  }
  auto file = service_->Create(req->type, req->size_hint);
  Serializer out;
  if (!file.ok()) {
    EncodeError(out, file.error());
    return std::move(out).Take();
  }
  EncodeStatus(out, OkStatus());
  out.U64(file->value);
  // The creator gets a version token and a callback promise up front, so
  // the open that follows a create is already zero-exchange.
  out.U64(service_->Version(*file));
  out.I64(Grant(*file, req->cb));
  sim::Payload reply = std::move(out).Take();
  RememberToken(req->token, reply);
  return reply;
}

sim::Payload FileServiceServer::HandleDelete(
    std::span<const std::uint8_t> body) {
  auto req = FileRequest::Decode(body);
  if (!req.ok()) return ErrorReply(req.error());
  if (const sim::Payload* replay = FindToken(req->token)) {
    ++stats_.duplicate_replays;
    return *replay;
  }
  current_requester_ = req->cb;
  Serializer out;
  EncodeStatus(out, service_->Delete(req->file));
  sim::Payload reply = std::move(out).Take();
  RememberToken(req->token, reply);
  return reply;
}

sim::Payload FileServiceServer::HandleOpen(
    std::span<const std::uint8_t> body) {
  auto req = FileRequest::Decode(body);
  if (!req.ok()) return ErrorReply(req.error());
  Serializer out;
  // An open reply carries the version token and attributes, so the agent
  // primes its handle (size, cursor bounds) and validates its cache with a
  // single exchange instead of open+getattr.
  if (Status st = service_->Open(req->file); !st.ok()) {
    EncodeError(out, st.error());
    return std::move(out).Take();
  }
  auto attrs = service_->GetAttributes(req->file);
  if (!attrs.ok()) {
    EncodeError(out, attrs.error());
    return std::move(out).Take();
  }
  EncodeStatus(out, OkStatus());
  out.U64(service_->Version(req->file));
  EncodeAttributes(out, *attrs);
  out.I64(Grant(req->file, req->cb));
  return std::move(out).Take();
}

sim::Payload FileServiceServer::HandlePread(
    std::span<const std::uint8_t> body) {
  auto req = PreadRequest::Decode(body);
  if (!req.ok()) return ErrorReply(req.error());
  const bool hot = NoteReadLoad(req->file);
  // The decoder refused a wrapping offset + length.
  const std::uint64_t first_block = req->offset / kBlockSize;
  const std::uint64_t end_block = BlocksCovering(req->offset + req->length);
  // Cache-tier read routing: the file is hot and serving the range would
  // reach a disk, so point the reader at callback-holding peers. The
  // detour costs the reader one exchange and saves the origin a disk
  // reference; a range the origin holds in memory (block pool or track
  // cache) is cheaper to serve here, in one exchange. The redirect carries
  // the expected version token (the peer serves ONLY at exactly this
  // token) and a callback grant: the reader will cache the peer-served
  // blocks, so the server must know to break it on the next write.
  if (ct_config_.enabled && hot && !req->no_redirect && !req->cb.empty() &&
      !service_->Resident(req->file, first_block, end_block)) {
    std::vector<std::string> peers =
        PickPeers(req->file, req->cb, first_block, end_block);
    if (!peers.empty()) {
      ++stats_.redirects_issued;
      const SimTime expiry = Grant(req->file, req->cb);
      // Register the range optimistically: if the peer fetch fails, the
      // fallback's no_redirect pread records the same range anyway, and a
      // wasted future redirect just falls back too.
      NoteHeldBlocks(req->file, req->cb, first_block, end_block);
      Serializer out;
      EncodeStatus(out, OkStatus());
      out.U64(service_->Version(req->file));
      out.U8(kPreadReplyRedirect);
      out.U32(static_cast<std::uint32_t>(peers.size()));
      for (const std::string& p : peers) out.String(p);
      out.I64(expiry);
      return std::move(out).Take();
    }
  }
  // Size the reply by what the file holds past the offset, never by the
  // requested length alone: the length is the caller's claim.
  auto attrs = service_->GetAttributes(req->file);
  if (!attrs.ok()) return ErrorReply(attrs.error());
  const std::uint64_t avail =
      req->offset < attrs->size ? attrs->size - req->offset : 0;
  std::vector<std::uint8_t> buf(std::min(req->length, avail));
  auto n = service_->Read(req->file, req->offset, buf);
  Serializer out;
  if (!n.ok()) {
    EncodeError(out, n.error());
    return std::move(out).Take();
  }
  EncodeStatus(out, OkStatus());
  out.U64(service_->Version(req->file));
  out.U8(kPreadReplyData);
  out.Bytes({buf.data(), static_cast<std::size_t>(*n)});
  const SimTime expiry = Grant(req->file, req->cb);
  // The reader is about to cache the blocks this reply covers: remember the
  // range so the read router can consider it as a serving peer. Zero bytes
  // served (read at EOF) registers nothing.
  const std::uint64_t served_end_block =
      first_block + (req->offset % kBlockSize + *n + kBlockSize - 1) /
                        kBlockSize;
  NoteHeldBlocks(req->file, req->cb, first_block, served_end_block);
  out.I64(expiry);
  return std::move(out).Take();
}

sim::Payload FileServiceServer::HandlePwriteVec(
    std::span<const std::uint8_t> body) {
  auto req = PwriteVecRequest::Decode(body);
  if (!req.ok()) return ErrorReply(req.error());
  // A close is not idempotent: run twice, it would drop another holder's
  // pin. A retransmitted closing batch replays its first reply.
  const bool tokened = req->finish == PwriteFinish::kClose;
  if (tokened) {
    if (const sim::Payload* replay = FindToken(req->token)) {
      ++stats_.duplicate_replays;
      return *replay;
    }
  }
  current_requester_ = req->cb;
  // Extents apply in order through the service's vectored write path. A
  // mid-batch failure leaves a prefix applied and runs no finish —
  // harmless, because every extent is positional: the agent keeps the
  // whole batch dirty and its descriptor open, and the retry re-produces
  // the same bytes.
  std::uint64_t total = 0;
  std::vector<FileId> files;  // distinct, in first-appearance order
  for (const PwriteExtent& e : req->extents) {
    auto n = service_->Write(e.file, e.offset, e.data);
    if (!n.ok()) return ErrorReply(n.error());
    total += *n;
    if (std::find(files.begin(), files.end(), e.file) == files.end()) {
      files.push_back(e.file);
    }
  }
  // Every extent applied: the close (or sync) the batch carries runs now,
  // so the data and the close cost one exchange.
  Status finished = OkStatus();
  switch (req->finish) {
    case PwriteFinish::kNone: break;
    case PwriteFinish::kClose:
      finished = service_->Close(req->finish_file);
      break;
    case PwriteFinish::kSync:
      // The data and any hard table change land before the reply; soft
      // attributes ride the next table store, as after a close.
      finished = service_->Sync(req->finish_file);
      break;
  }
  Serializer out;
  EncodeStatus(out, OkStatus());
  out.U64(total);
  out.U32(static_cast<std::uint32_t>(files.size()));
  for (FileId f : files) {
    out.U64(f.value);
    out.U64(service_->Version(f));
  }
  EncodeStatus(out, finished);
  sim::Payload reply = std::move(out).Take();
  if (tokened) RememberToken(req->token, reply);
  return reply;
}

sim::Payload FileServiceServer::HandleGetAttr(
    std::span<const std::uint8_t> body) {
  auto req = FileRequest::Decode(body);
  if (!req.ok()) return ErrorReply(req.error());
  auto attrs = service_->GetAttributes(req->file);
  Serializer out;
  if (!attrs.ok()) {
    EncodeError(out, attrs.error());
    return std::move(out).Take();
  }
  EncodeStatus(out, OkStatus());
  out.U64(service_->Version(req->file));
  EncodeAttributes(out, *attrs);
  out.I64(Grant(req->file, req->cb));
  return std::move(out).Take();
}

sim::Payload FileServiceServer::HandleResize(
    std::span<const std::uint8_t> body) {
  auto req = ResizeRequest::Decode(body);
  if (!req.ok()) return ErrorReply(req.error());
  if (const sim::Payload* replay = FindToken(req->token)) {
    ++stats_.duplicate_replays;
    return *replay;
  }
  current_requester_ = req->cb;
  Serializer out;
  EncodeStatus(out, service_->Resize(req->file, req->size));
  sim::Payload reply = std::move(out).Take();
  RememberToken(req->token, reply);
  return reply;
}

sim::Payload FileServiceServer::HandleCapture(
    FsOp op, std::span<const std::uint8_t> body) {
  auto req = FileRequest::Decode(body);
  if (!req.ok()) return ErrorReply(req.error());
  // Non-idempotent: a replayed capture must return the SAME image id.
  if (const sim::Payload* replay = FindToken(req->token)) {
    ++stats_.duplicate_replays;
    return *replay;
  }
  current_requester_ = req->cb;
  auto image = op == FsOp::kSnapshot ? service_->Snapshot(req->file)
                                     : service_->Clone(req->file);
  Serializer out;
  if (!image.ok()) {
    EncodeError(out, image.error());
    return std::move(out).Take();
  }
  EncodeStatus(out, OkStatus());
  out.U64(image->value);
  // Version + grant for the NEW image, so the caller's first open of it is
  // zero-exchange (same shape as the create reply).
  out.U64(service_->Version(*image));
  out.I64(Grant(*image, req->cb));
  sim::Payload reply = std::move(out).Take();
  RememberToken(req->token, reply);
  return reply;
}

sim::Payload FileServiceServer::HandleRenew(
    std::span<const std::uint8_t> body) {
  auto req = FileRequest::Decode(body);
  if (!req.ok()) return ErrorReply(req.error());
  // One exchange re-arms an expired callback AND revalidates the agent's
  // version token — the cheap recovery path after lease expiry, compared
  // with a full open (which would also re-pin the file server-side).
  Serializer out;
  EncodeStatus(out, OkStatus());
  out.U64(service_->Version(req->file));
  out.I64(Grant(req->file, req->cb));
  return std::move(out).Take();
}

}  // namespace rhodos::agent
