#include "agent/file_agent.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/logging.h"

namespace rhodos::agent {

namespace {
// Agent descriptors start above the reserved redirection values
// (100001..100003) so every descriptor the agent issues is > 100000 and
// never collides with the fixed stream constants.
constexpr ObjectDescriptor kFirstAgentDescriptor = 100'010;
}  // namespace

FileAgent::FileAgent(MachineId machine, sim::MessageBus* bus,
                     std::string fs_address, naming::NamingFacade* naming,
                     FileAgentConfig config)
    : machine_(machine),
      bus_(bus),
      naming_(naming),
      config_(config),
      next_descriptor_(kFirstAgentDescriptor) {
  // Identify the machine to the bus so FaultPlan partitions can cut a
  // single caller off from the file service.
  rpcs_.push_back(std::make_unique<sim::RpcClient>(
      bus, std::move(fs_address), config.rpc,
      "machine-" + std::to_string(machine.value)));
  RegisterCallbackService();
}

FileAgent::FileAgent(MachineId machine, sim::MessageBus* bus,
                     placement::ShardRouter* router,
                     naming::NamingFacade* naming, FileAgentConfig config)
    : machine_(machine),
      bus_(bus),
      router_(router),
      naming_(naming),
      config_(config),
      next_descriptor_(kFirstAgentDescriptor) {
  const std::string caller = "machine-" + std::to_string(machine.value);
  for (std::uint32_t s = 0; s < router->ShardCount(); ++s) {
    rpcs_.push_back(std::make_unique<sim::RpcClient>(
        bus, router->AddressOf(s), config.rpc, caller));
  }
  RegisterCallbackService();
}

FileAgent::~FileAgent() { bus_->UnregisterService(cb_address_); }

void FileAgent::RegisterCallbackService() {
  cb_address_ = "cb-machine-" + std::to_string(machine_.value);
  bus_->RegisterService(
      cb_address_, [this](std::uint32_t opcode,
                          std::span<const std::uint8_t> request) {
        return HandleCallbackMessage(opcode, request);
      });
}

sim::Payload FileAgent::HandleCallbackMessage(
    std::uint32_t opcode, std::span<const std::uint8_t> request) {
  if (static_cast<FsOp>(opcode) == FsOp::kPeerRead) {
    return HandlePeerRead(request);
  }
  Serializer out;
  if (static_cast<FsOp>(opcode) != FsOp::kCallbackBreak) {
    EncodeError(out, {ErrorCode::kNotSupported, "unexpected agent opcode"});
    return std::move(out).Take();
  }
  auto brk = CallbackBreak::Decode(request);
  if (!brk.ok()) {
    EncodeError(out, brk.error());
    return std::move(out).Take();
  }
  // The server is revoking its promise ahead of a foreign mutation: forget
  // the promise, and let the piggybacked post-mutation token drop this
  // file's clean cached blocks before they can serve the old image. A file
  // with no token caches nothing, so its break records none: otherwise
  // every break naming a new file id would grow the token table.
  ++stats_.callback_breaks;
  callbacks_.erase(brk->file);
  if (versions_.contains(brk->file)) NoteVersion(brk->file, brk->version);
  EncodeStatus(out, OkStatus());
  return std::move(out).Take();
}

sim::Payload FileAgent::HandlePeerRead(std::span<const std::uint8_t> request) {
  Serializer out;
  auto req = PeerReadRequest::Decode(request);
  if (!req.ok()) {
    EncodeError(out, req.error());
    return std::move(out).Take();
  }
  // Only an unbroken, unexpired promise at EXACTLY the expected version
  // token vouches for the cached bytes. A break that raced the redirect, a
  // lapsed lease, or a moved shard epoch all land here — the reader falls
  // back to the origin and can never observe a stale image through a peer.
  const auto vit = versions_.find(req->file);
  if (!HoldsCallback(req->file) || vit == versions_.end() ||
      vit->second != req->expected_version) {
    ++stats_.peer_serve_rejects;
    EncodeError(out, {ErrorCode::kStaleHandle,
                      "promise broken or version token moved"});
    return std::move(out).Take();
  }
  // Copy the range out of clean cached blocks under the cache mutex (the
  // flush path shares these structures); encode the reply outside it. Every
  // byte must come from a clean block — a dirty block holds OUR un-flushed
  // writes, which the expected token does not cover. The reply grows with
  // what is copied: the requested length is the reader's claim, not ours.
  std::vector<std::uint8_t> data;
  bool miss = false;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    std::uint64_t pos = req->offset;
    const std::uint64_t end = req->offset + req->length;
    while (pos < end) {
      const std::uint64_t block = pos / kBlockSize;
      const std::uint64_t in_block = pos % kBlockSize;
      CacheEntry* entry = cache_.Touch(BlockKey{req->file, block});
      if (entry == nullptr || entry->dirty) {
        miss = true;
        break;
      }
      if (entry->valid_bytes <= in_block) break;  // EOF inside this block
      const std::uint64_t take =
          std::min(end - pos, entry->valid_bytes - in_block);
      data.insert(data.end(),
                  entry->data.begin() + static_cast<std::ptrdiff_t>(in_block),
                  entry->data.begin() +
                      static_cast<std::ptrdiff_t>(in_block + take));
      pos += take;
      // A partially valid block is the file's tail at this version: stop.
      if (in_block + take < kBlockSize) break;
    }
  }
  if (miss) {
    ++stats_.peer_serve_rejects;
    EncodeError(out, {ErrorCode::kNotFound, "blocks not cached clean"});
    return std::move(out).Take();
  }
  ++stats_.peer_serves;
  EncodeStatus(out, OkStatus());
  out.Bytes(data);
  return std::move(out).Take();
}

Result<std::uint64_t> FileAgent::FetchFromPeers(
    FileId file, std::uint64_t offset, std::span<std::uint8_t> out,
    std::uint64_t expected_version, const std::vector<std::string>& peers) {
  PeerReadRequest preq{file, offset, out.size(), expected_version};
  const auto body = preq.Encode();
  const std::string caller = "machine-" + std::to_string(machine_.value);
  for (const std::string& peer : peers) {
    if (peer == cb_address_) continue;  // never serve ourselves
    const SimTime t0 = bus_->clock()->Now();
    // One direct bus call per candidate — no retries: a dead or refusing
    // peer costs one exchange and the reader moves on to the next one.
    auto r = bus_->Call(peer, static_cast<std::uint32_t>(FsOp::kPeerRead),
                        body, caller);
    if (!r.ok()) continue;
    Deserializer in{*r};
    if (Status st = DecodeStatus(in); !st.ok()) continue;  // refused
    const std::vector<std::uint8_t> data = in.Bytes();
    if (!in.ok()) continue;
    // Adoption check: the bytes are valid at exactly expected_version. If a
    // break landed while we were fetching (our token moved) or our own
    // promise lapsed, the token no longer vouches for them — and every
    // other candidate would be equally stale, so go straight to the origin.
    const auto vit = versions_.find(file);
    if (vit == versions_.end() || vit->second != expected_version ||
        !HoldsCallback(file)) {
      return Error{ErrorCode::kStaleHandle, "token moved during peer fetch"};
    }
    obs::Observe(Obs(), "agent.peer_serve_latency_ns",
                 bus_->clock()->Now() - t0);
    ++stats_.peer_fetches;
    const std::size_t n = std::min(data.size(), out.size());
    std::memcpy(out.data(), data.data(), n);
    return static_cast<std::uint64_t>(n);
  }
  return Error{ErrorCode::kUnavailable, "no candidate peer served the read"};
}

bool FileAgent::HoldsCallback(FileId file) const {
  const auto it = callbacks_.find(file);
  if (it == callbacks_.end()) return false;
  if (it->second.expiry <= bus_->clock()->Now()) return false;
  if (router_ != nullptr && it->second.epoch != router_->epoch()) return false;
  return true;
}

void FileAgent::AdoptGrant(FileId file, SimTime expiry,
                           const file::FileAttributes* attrs) {
  if (expiry <= 0) return;
  CallbackState& cb = callbacks_[file];
  cb.expiry = expiry;
  cb.epoch = router_ == nullptr ? 0 : router_->epoch();
  if (attrs != nullptr) {
    cb.attrs = *attrs;
    cb.attrs_valid = true;
  }
}

void FileAgent::NoteLocalSize(FileId file, std::uint64_t size) {
  if (auto it = callbacks_.find(file);
      it != callbacks_.end() && it->second.attrs_valid) {
    it->second.attrs.size = std::max(it->second.attrs.size, size);
  }
}

Status FileAgent::RenewCallback(FileId file) {
  FileRequest req{0, file, cb_address_};
  const auto body = req.Encode();
  RHODOS_ASSIGN_OR_RETURN(
      sim::Payload reply,
      Call(RouteShard(file), FsOp::kCallbackRenew, body));
  Deserializer in{reply};
  RHODOS_RETURN_IF_ERROR(DecodeStatus(in));
  const std::uint64_t version = in.U64();
  const SimTime expiry = in.I64();
  if (!in.ok()) return Error{ErrorCode::kInternal, "bad renew reply"};
  ++stats_.callback_renewals;
  NoteVersion(file, version);
  AdoptGrant(file, expiry, nullptr);
  return OkStatus();
}

std::uint32_t FileAgent::RouteShard(FileId file) {
  return router_ == nullptr ? 0 : router_->RouteFile(file).shard;
}

std::uint32_t FileAgent::RouteTokenShard(std::uint64_t token) {
  return router_ == nullptr ? 0 : router_->RouteToken(token).shard;
}

void FileAgent::ResetStats() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  stats_ = FileAgentStats{};
  for (auto& rpc : rpcs_) rpc->ResetStats();
}

const sim::RpcHealth& FileAgent::rpc_health() const {
  health_agg_ = sim::RpcHealth{};
  for (const auto& rpc : rpcs_) {
    const sim::RpcHealth& h = rpc->health();
    health_agg_.calls += h.calls;
    health_agg_.successes += h.successes;
    health_agg_.failures += h.failures;
    health_agg_.deadline_exhausted += h.deadline_exhausted;
    health_agg_.retries += h.retries;
    health_agg_.consecutive_failures =
        std::max(health_agg_.consecutive_failures, h.consecutive_failures);
    health_agg_.backoff_waited += h.backoff_waited;
  }
  return health_agg_;
}

std::uint64_t FileAgent::NextToken() {
  // Unique across machines: machine id in the top bits.
  return (static_cast<std::uint64_t>(machine_.value) << 48) | next_token_++;
}

Result<FileAgent::OpenHandle*> FileAgent::Handle(ObjectDescriptor od) {
  auto it = handles_.find(od);
  if (it == handles_.end()) {
    return Error{ErrorCode::kBadDescriptor,
                 "descriptor " + std::to_string(od) + " is not open"};
  }
  return &it->second;
}

Result<sim::Payload> FileAgent::Call(std::uint32_t shard, FsOp op,
                                     std::span<const std::uint8_t> body) {
  return rpcs_.at(shard)->Call(static_cast<std::uint32_t>(op), body);
}

// --- version-token coherence ----------------------------------------------------

void FileAgent::InvalidateStaleClean(FileId file,
                                     const std::set<std::uint64_t>* keep) {
  for (const std::uint64_t block : cache_.index().Blocks(file)) {
    const BlockKey key{file, block};
    if (!cache_.Peek(key)->dirty &&
        (keep == nullptr || keep->count(block) == 0)) {
      cache_.Erase(key);
      ++stats_.stale_invalidations;
    }
  }
}

void FileAgent::NoteVersion(FileId file, std::uint64_t token) {
  auto [it, inserted] = versions_.emplace(file, token);
  if (inserted || it->second == token) return;
  // The server's token moved since we last validated: another machine
  // changed the file. Clean blocks may show the old image — drop them.
  // Dirty blocks are our own pending writes and survive (last writer wins
  // when they flush).
  it->second = token;
  InvalidateStaleClean(file, nullptr);
  if (auto cit = callbacks_.find(file); cit != callbacks_.end()) {
    cit->second.attrs_valid = false;
  }
}

void FileAgent::AdoptWriteVersion(FileId file, std::uint64_t token,
                                  std::uint64_t bumps,
                                  const std::set<std::uint64_t>& keep) {
  auto [it, inserted] = versions_.emplace(file, token);
  if (inserted) return;
  if (it->second + bumps != token) {
    // The token advanced by more than our own writes account for: a foreign
    // write (or a duplicated delivery of ours) interleaved. The blocks we
    // just pushed are known current — the server applied them last — but
    // other clean blocks may be stale.
    InvalidateStaleClean(file, &keep);
    if (auto cit = callbacks_.find(file); cit != callbacks_.end()) {
      cit->second.attrs_valid = false;
    }
  }
  it->second = token;
}

// --- open / create / close / delete ---------------------------------------------

void FileAgent::SyncNameCache() {
  const std::uint64_t gen = naming_->generation();
  if (gen != naming_generation_) {
    name_cache_.clear();
    naming_generation_ = gen;
  }
}

Result<ObjectDescriptor> FileAgent::Create(const naming::AttributedName& name,
                                           file::ServiceType type,
                                           std::uint64_t size_hint) {
  obs::OpScope op(obs::TracerOf(Obs()), "agent", "create");
  obs::LatencyScope lat(Obs(), "agent.op_latency_ns");
  CreateRequest req{NextToken(), type, size_hint, cb_address_};
  const auto body = req.Encode();
  // The FileId does not exist yet (the server mints it), so creates spread
  // across shards by their idempotency token.
  const std::uint32_t create_shard = RouteTokenShard(req.token);
  RHODOS_ASSIGN_OR_RETURN(sim::Payload reply,
                          Call(create_shard, FsOp::kCreate, body));
  Deserializer in{reply};
  RHODOS_RETURN_IF_ERROR(DecodeStatus(in));
  const FileId file{in.U64()};
  const std::uint64_t version = in.U64();
  const SimTime expiry = in.I64();
  if (!in.ok()) return Error{ErrorCode::kInternal, "bad create reply"};
  NoteVersion(file, version);
  // Future mutations of this file are served by its HOME shard; a promise
  // from any other shard could never be broken, so adopting it would let
  // this agent serve stale reads for a whole lease. Only the creator lucky
  // enough to have its create land on the home shard keeps the grant.
  if (RouteShard(file) == create_shard) {
    AdoptGrant(file, expiry, nullptr);
    if (auto cit = callbacks_.find(file); cit != callbacks_.end()) {
      // The creator knows the new file is empty, so the OpenById below can
      // be zero-exchange under the just-granted promise.
      cit->second.attrs = file::FileAttributes{};
      cit->second.attrs.service_type = type;
      cit->second.attrs_valid = true;
    }
  }
  RHODOS_RETURN_IF_ERROR(naming_->RegisterFile(name, file));
  // Our registration moved the naming generation; adopt it and prime the
  // binding so re-opening by name skips resolution.
  SyncNameCache();
  name_cache_.emplace(name, file);
  return OpenById(file);
}

Result<ObjectDescriptor> FileAgent::Open(const naming::AttributedName& name) {
  obs::OpScope op(obs::TracerOf(Obs()), "agent", "open");
  obs::LatencyScope lat(Obs(), "agent.op_latency_ns");
  SyncNameCache();
  if (auto it = name_cache_.find(name); it != name_cache_.end()) {
    ++stats_.name_cache_hits;
    return OpenById(it->second);
  }
  RHODOS_ASSIGN_OR_RETURN(FileId file, naming_->ResolveFile(name));
  name_cache_.emplace(name, file);
  return OpenById(file);
}

Result<ObjectDescriptor> FileAgent::OpenById(FileId file) {
  obs::OpScope op(obs::TracerOf(Obs()), "agent", "open_by_id");
  // Zero-exchange warm open: an unbroken, unexpired callback promise means
  // the server would have notified us of any change, so the attributes and
  // version token we hold are current — no validation round trip needed.
  if (HoldsCallback(file)) {
    if (const auto it = callbacks_.find(file); it->second.attrs_valid) {
      ++stats_.callback_fast_opens;
      const ObjectDescriptor od = next_descriptor_++;
      handles_.emplace(
          od, OpenHandle{file, 0, it->second.attrs.size, /*local=*/true});
      ++stats_.descriptors_issued;
      return od;
    }
  }
  FileRequest req{0, file, cb_address_};
  const auto body = req.Encode();
  RHODOS_ASSIGN_OR_RETURN(sim::Payload reply,
                          Call(RouteShard(file), FsOp::kOpen, body));
  Deserializer in{reply};
  RHODOS_RETURN_IF_ERROR(DecodeStatus(in));
  // The open reply carries the version token, attributes, and a callback
  // grant — one exchange primes the handle, validates any blocks cached
  // from a prior open, and arms the zero-exchange path for the next one.
  const std::uint64_t version = in.U64();
  const file::FileAttributes attrs = DecodeAttributes(in);
  const SimTime expiry = in.I64();
  if (!in.ok()) return Error{ErrorCode::kInternal, "bad open reply"};
  NoteVersion(file, version);
  AdoptGrant(file, expiry, &attrs);

  const ObjectDescriptor od = next_descriptor_++;
  handles_.emplace(od, OpenHandle{file, 0, attrs.size, /*local=*/false});
  ++stats_.descriptors_issued;
  return od;
}

Status FileAgent::Close(ObjectDescriptor od) {
  obs::OpScope op(obs::TracerOf(Obs()), "agent", "close");
  obs::LatencyScope lat(Obs(), "agent.op_latency_ns");
  RHODOS_ASSIGN_OR_RETURN(OpenHandle * h, Handle(od));
  RHODOS_RETURN_IF_ERROR(Flush(od));
  if (h->local) {
    // Opened under a callback promise with no server exchange — the server
    // never pinned it, so the close is agent-local too (zero exchanges
    // when nothing was written). A written handle still owes the service a
    // flush: the server-side close normally forces the service's delayed
    // writes to disk, and skipping it must not weaken close-to-stable.
    if (h->wrote) {
      FileRequest req{0, h->file, cb_address_};
      const auto body = req.Encode();
      RHODOS_ASSIGN_OR_RETURN(sim::Payload reply,
                              Call(RouteShard(h->file), FsOp::kFlush, body));
      Deserializer in{reply};
      if (Status st = DecodeStatus(in); !st.ok()) return st;
    }
    handles_.erase(od);
    return OkStatus();
  }
  FileRequest req{0, h->file, cb_address_};
  const auto body = req.Encode();
  RHODOS_ASSIGN_OR_RETURN(sim::Payload reply,
                          Call(RouteShard(h->file), FsOp::kClose, body));
  Deserializer in{reply};
  if (Status st = DecodeStatus(in);
      !st.ok() && st.code() != ErrorCode::kBadDescriptor) {
    return st;
  }
  // A kBadDescriptor reply means the serving shard lost its open-file state
  // (a fence purged it, or failover rerouted us to a shard that never saw
  // the open); the descriptor is gone either way. A fence flushed the data
  // first; a server crash lost it, yet this close still reports success.
  handles_.erase(od);
  return OkStatus();
}

Status FileAgent::Delete(const naming::AttributedName& name) {
  obs::OpScope op(obs::TracerOf(Obs()), "agent", "delete");
  obs::LatencyScope lat(Obs(), "agent.op_latency_ns");
  RHODOS_ASSIGN_OR_RETURN(FileId file, naming_->ResolveFile(name));
  FileRequest req{NextToken(), file, cb_address_};
  const auto body = req.Encode();
  // Step 1 of the cross-shard delete: remove the file on its file shard
  // (tokened, so a retry replays). Failures name the shard so an operator
  // can tell which side of the two-step protocol stalled.
  const std::uint32_t shard = RouteShard(file);
  auto reply = Call(shard, FsOp::kDelete, body);
  if (!reply.ok()) {
    if (router_ == nullptr) return Error{reply.error()};
    return Error{reply.error().code,
                 reply.error().message + " (file shard " +
                     std::to_string(shard) + ")"};
  }
  Deserializer in{*reply};
  if (Status st = DecodeStatus(in); !st.ok()) {
    if (router_ == nullptr) return st;
    return Error{st.error().code, st.error().message + " (file shard " +
                                      std::to_string(shard) + ")"};
  }
  // Step 2: unregister the name (the sharded naming layer fans this out to
  // the shards owning the name's attribute keys).
  if (Status ns = naming_->UnregisterFile(file); !ns.ok()) {
    // The file is gone from the service but its name survived — every later
    // resolve of this name will dangle. Surface it instead of dropping it.
    ++stats_.naming_unregister_failures;
    RHODOS_WARN("agent", "delete of file " << file.value
                                           << " left its naming entry behind: "
                                           << ns.error().ToString());
  }
  // Drop cached blocks and per-file bookkeeping of the dead file.
  for (const std::uint64_t block : cache_.index().Blocks(file)) {
    const BlockKey key{file, block};
    if (cache_.Peek(key)->dirty) --dirty_blocks_;
    cache_.Erase(key);
    ++stats_.invalidations;
  }
  first_dirty_at_.erase(file);
  versions_.erase(file);
  callbacks_.erase(file);
  for (auto it = name_cache_.begin(); it != name_cache_.end();) {
    it = (it->second == file) ? name_cache_.erase(it) : std::next(it);
  }
  return OkStatus();
}

// --- cache -------------------------------------------------------------------------

void FileAgent::MarkDirty(FileId file, CacheEntry& entry) {
  if (entry.dirty) return;
  entry.dirty = true;
  ++dirty_blocks_;
  first_dirty_at_.emplace(file, bus_->clock()->Now());
}

std::set<std::uint64_t> FileAgent::DirtySet(FileId file) const {
  std::set<std::uint64_t> dirty;
  for (const std::uint64_t block : cache_.index().Blocks(file)) {
    if (cache_.Peek(BlockKey{file, block})->dirty) dirty.insert(block);
  }
  return dirty;
}

std::vector<FileId> FileAgent::DirtyFiles() const {
  std::vector<FileId> files;
  files.reserve(first_dirty_at_.size());
  for (const auto& [file, since] : first_dirty_at_) files.push_back(file);
  return files;
}

std::size_t FileAgent::BuildExtents(FileId file,
                                    const std::set<std::uint64_t>& blocks,
                                    std::vector<PwriteExtent>& out) {
  const std::size_t before = out.size();
  // The set is ordered, so one pass coalesces adjacent blocks. A block can
  // only be glued onto the previous one when that block's cached bytes fill
  // it completely — a partial tail ends its run.
  std::uint64_t prev_block = 0;
  std::uint64_t prev_len = 0;
  bool have_prev = false;
  for (const std::uint64_t block : blocks) {
    const CacheEntry& entry = *cache_.Peek(BlockKey{file, block});
    if (have_prev && block == prev_block + 1 && prev_len == kBlockSize) {
      std::vector<std::uint8_t>& run = out.back().data;
      run.insert(run.end(), entry.data.begin(),
                 entry.data.begin() +
                     static_cast<std::ptrdiff_t>(entry.valid_bytes));
    } else {
      out.push_back(PwriteExtent{
          file, block * kBlockSize,
          std::vector<std::uint8_t>(
              entry.data.begin(),
              entry.data.begin() +
                  static_cast<std::ptrdiff_t>(entry.valid_bytes))});
    }
    prev_block = block;
    prev_len = entry.valid_bytes;
    have_prev = true;
  }
  return out.size() - before;
}

Status FileAgent::FlushDirtyFiles(std::span<const FileId> files) {
  struct PerFile {
    FileId file;
    std::uint64_t extents = 0;
    std::set<std::uint64_t> blocks;
  };
  // One PwriteVec exchange per shard batch: files group by the shard that
  // serves them, so an unsharded agent still pushes everything in a single
  // exchange. Bookkeeping is applied per successful batch; a failed batch
  // leaves its files dirty for the next trigger to retry.
  std::map<std::uint32_t, std::vector<FileId>> by_shard;
  for (const FileId file : files) {
    if (first_dirty_at_.contains(file)) {
      by_shard[RouteShard(file)].push_back(file);
    }
  }
  for (const auto& [shard, shard_files] : by_shard) {
    PwriteVecRequest req;
    req.cb = cb_address_;
    std::vector<PerFile> flushed;
    {
      // Snapshot the dirty index and copy the extent bytes under the cache
      // mutex, then RELEASE it for the exchange below: the batch is
      // self-contained once built, and holding the lock across the RPC
      // would let one slow peer-serve (or slow server) stall the whole
      // write-behind drain — the regression the cachetier suite pins.
      std::lock_guard<std::mutex> lock(cache_mu_);
      for (const FileId file : shard_files) {
        PerFile pf;
        pf.file = file;
        pf.blocks = DirtySet(file);
        pf.extents = BuildExtents(file, pf.blocks, req.extents);
        flushed.push_back(std::move(pf));
      }
    }
    if (req.extents.empty()) continue;

    const auto body = req.Encode();
    RHODOS_ASSIGN_OR_RETURN(sim::Payload reply,
                            Call(shard, FsOp::kPwriteVec, body));
    Deserializer in{reply};
    RHODOS_RETURN_IF_ERROR(DecodeStatus(in));
    (void)in.U64();  // total bytes applied
    const std::uint32_t nfiles = in.U32();
    std::unordered_map<FileId, std::uint64_t> tokens;
    for (std::uint32_t i = 0; i < nfiles && in.ok(); ++i) {
      const FileId f{in.U64()};
      tokens[f] = in.U64();
    }
    if (!in.ok()) return Error{ErrorCode::kInternal, "bad pwritevec reply"};

    // Re-acquire for the clean-marking + token adoption; a peer-serve that
    // slipped in during the exchange saw a consistent pre-flush cache (the
    // blocks were still dirty, so it refused them — never torn bytes).
    std::lock_guard<std::mutex> lock(cache_mu_);
    ++stats_.writeback_batches;
    stats_.writeback_runs += req.extents.size();
    for (const PerFile& pf : flushed) {
      for (const std::uint64_t block : pf.blocks) {
        if (CacheEntry* entry = cache_.Peek(BlockKey{pf.file, block})) {
          entry->dirty = false;
        }
        ++stats_.writebacks;
      }
      dirty_blocks_ -= pf.blocks.size();
      first_dirty_at_.erase(pf.file);
      if (auto it = tokens.find(pf.file); it != tokens.end()) {
        AdoptWriteVersion(pf.file, it->second, pf.extents, pf.blocks);
      }
    }
  }
  return OkStatus();
}

void FileAgent::MaybeBackgroundWriteback() {
  if (dirty_blocks_ == 0) return;
  if (config_.writeback_threshold > 0 &&
      dirty_blocks_ >= config_.writeback_threshold) {
    // Eager path: the whole cache's dirty data in one exchange.
    (void)FlushDirtyFiles(DirtyFiles());
    return;
  }
  if (config_.writeback_age_ns <= 0) return;
  const SimTime now = bus_->clock()->Now();
  std::vector<FileId> aged;
  for (const auto& [file, since] : first_dirty_at_) {
    if (now - since >= config_.writeback_age_ns) aged.push_back(file);
  }
  if (!aged.empty()) (void)FlushDirtyFiles(aged);
}

Status FileAgent::EvictOne() {
  const auto clean = [](const BlockKey&, const CacheEntry& e) {
    return !e.dirty;
  };
  const BlockKey* victim = cache_.Victim(clean);
  if (victim == nullptr) return {ErrorCode::kInternal, "empty cache"};
  if (cache_.Peek(*victim)->dirty) {
    // Every cached block is dirty: push the whole cache in one batched
    // exchange, then the LRU victim is clean and can go.
    RHODOS_RETURN_IF_ERROR(FlushDirtyFiles(DirtyFiles()));
    victim = cache_.Victim(clean);
  }
  if (victim != nullptr) cache_.Erase(*victim);
  return OkStatus();
}

Status FileAgent::InsertBlock(FileId file, std::uint64_t block,
                              std::span<const std::uint8_t> data,
                              std::uint64_t valid_bytes) {
  if (config_.cache_blocks == 0) return OkStatus();
  if (CacheEntry* existing = cache_.Touch(BlockKey{file, block})) {
    std::memcpy(existing->data.data(), data.data(),
                std::min<std::size_t>(data.size(), kBlockSize));
    existing->valid_bytes = std::max(existing->valid_bytes, valid_bytes);
    return OkStatus();
  }
  while (cache_.size() >= config_.cache_blocks) {
    RHODOS_RETURN_IF_ERROR(EvictOne());
  }
  CacheEntry entry;
  entry.data.assign(kBlockSize, 0);
  std::memcpy(entry.data.data(), data.data(),
              std::min<std::size_t>(data.size(), kBlockSize));
  entry.valid_bytes = valid_bytes;
  cache_.Insert(BlockKey{file, block}, std::move(entry));
  return OkStatus();
}

// --- positional I/O ------------------------------------------------------------------

Result<std::uint64_t> FileAgent::ServerPread(FileId file,
                                             std::uint64_t offset,
                                             std::span<std::uint8_t> out) {
  // At most two origin exchanges: the first may answer with a cache-tier
  // redirect; if no candidate peer serves, the second demands bytes
  // (no_redirect) — one extra exchange on the miss path, never a stale read.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool no_redirect = attempt > 0;
    PreadRequest req{file, offset, out.size(), cb_address_, no_redirect};
    const auto body = req.Encode();
    RHODOS_ASSIGN_OR_RETURN(sim::Payload reply,
                            Call(RouteShard(file), FsOp::kPread, body));
    Deserializer in{reply};
    RHODOS_RETURN_IF_ERROR(DecodeStatus(in));
    const std::uint64_t version = in.U64();
    const std::uint8_t kind = in.U8();
    if (kind == kPreadReplyData) {
      const std::vector<std::uint8_t> data = in.Bytes();
      const SimTime expiry = in.I64();
      if (!in.ok()) return Error{ErrorCode::kInternal, "bad pread reply"};
      NoteVersion(file, version);
      AdoptGrant(file, expiry, nullptr);
      const std::size_t n = std::min(data.size(), out.size());
      std::memcpy(out.data(), data.data(), n);
      return static_cast<std::uint64_t>(n);
    }
    if (kind != kPreadReplyRedirect || no_redirect) {
      return Error{ErrorCode::kInternal, "bad pread reply kind"};
    }
    const std::uint32_t npeers = in.U32();
    std::vector<std::string> peers;
    peers.reserve(npeers);
    for (std::uint32_t i = 0; i < npeers && in.ok(); ++i) {
      peers.push_back(in.String());
    }
    const SimTime expiry = in.I64();
    if (!in.ok()) return Error{ErrorCode::kInternal, "bad pread redirect"};
    // Adopt the grant BEFORE fetching: the server now lists us as a holder
    // (it will break us on the next write), so bytes a peer serves at the
    // expected token are safe to cache under this promise.
    NoteVersion(file, version);
    AdoptGrant(file, expiry, nullptr);
    if (auto n = FetchFromPeers(file, offset, out, version, peers); n.ok()) {
      return *n;
    }
    // Every candidate refused or was unreachable: the origin must serve.
    ++stats_.peer_fallbacks;
  }
  return Error{ErrorCode::kInternal, "unreachable pread state"};
}

Result<std::uint64_t> FileAgent::ServerPwrite(
    FileId file, std::uint64_t offset, std::span<const std::uint8_t> in) {
  // A write-through pwrite is a write batch of one extent.
  PwriteVecRequest req;
  req.extents.push_back(PwriteExtent{
      file, offset, std::vector<std::uint8_t>(in.begin(), in.end())});
  req.cb = cb_address_;
  const auto body = req.Encode();
  RHODOS_ASSIGN_OR_RETURN(sim::Payload reply,
                          Call(RouteShard(file), FsOp::kPwriteVec, body));
  Deserializer din{reply};
  RHODOS_RETURN_IF_ERROR(DecodeStatus(din));
  const std::uint64_t n = din.U64();
  const std::uint32_t nfiles = din.U32();
  const FileId replied{din.U64()};
  const std::uint64_t version = din.U64();
  if (!din.ok() || nfiles != 1 || replied != file) {
    return Error{ErrorCode::kInternal, "bad pwrite reply"};
  }
  // Blocks this write covered end to end are current; a partially covered
  // boundary block may still hold foreign bytes outside our range, so it is
  // not kept and gets dropped if the token shows an interleaved writer.
  std::set<std::uint64_t> covered;
  const std::uint64_t end = offset + n;
  for (std::uint64_t b = (offset + kBlockSize - 1) / kBlockSize;
       (b + 1) * kBlockSize <= end; ++b) {
    covered.insert(b);
  }
  AdoptWriteVersion(file, version, 1, covered);
  return n;
}

Result<std::uint64_t> FileAgent::CachedRead(OpenHandle& h,
                                            std::uint64_t offset,
                                            std::span<std::uint8_t> out) {
  if (offset >= h.size) return std::uint64_t{0};
  const std::uint64_t len =
      std::min<std::uint64_t>(out.size(), h.size - offset);
  std::uint64_t done = 0;
  while (done < len) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t block = pos / kBlockSize;
    const std::uint64_t in_block = pos % kBlockSize;
    const std::uint64_t n =
        std::min<std::uint64_t>(len - done, kBlockSize - in_block);
    CacheEntry* entry = cache_.Touch(BlockKey{h.file, block});
    if (entry != nullptr && !entry->dirty &&
        entry->valid_bytes >= in_block + n && !HoldsCallback(h.file)) {
      // Clean cached data, but the promise covering it lapsed (lease
      // expiry, broken, or the shard epoch moved): revalidate before
      // serving. The renew both checks the version token (dropping the
      // block if the file changed) and re-arms the zero-exchange path.
      RHODOS_RETURN_IF_ERROR(RenewCallback(h.file));
      entry = cache_.Touch(BlockKey{h.file, block});
    }
    if (entry != nullptr && entry->valid_bytes >= in_block + n) {
      ++stats_.cache_hits;
      std::memcpy(out.data() + done, entry->data.data() + in_block, n);
      done += n;
      continue;
    }
    // Miss: fetch the whole enclosing block, extended into a run over the
    // request's following blocks the cache holds no entry for, in ONE
    // exchange (paper §4: one reference per contiguous span). The run stops
    // at the first block with any entry — a dirty one holds our own
    // unflushed bytes, which the fetched image must never overwrite.
    const std::uint64_t last_block = (offset + len - 1) / kBlockSize;
    std::uint64_t run_end = block + 1;
    while (run_end <= last_block &&
           !cache_.Contains(BlockKey{h.file, run_end})) {
      ++run_end;
    }
    const std::uint64_t run_blocks = run_end - block;
    stats_.cache_misses += run_blocks;  // blocks, not exchanges
    std::vector<std::uint8_t> runbuf(run_blocks * kBlockSize, 0);
    RHODOS_ASSIGN_OR_RETURN(std::uint64_t got,
                            ServerPread(h.file, block * kBlockSize, runbuf));
    // Cache every block the reply reached, each with its own valid bytes;
    // the first is cached even when empty, as a read at EOF always was.
    const std::uint64_t filled =
        std::max<std::uint64_t>(1, (got + kBlockSize - 1) / kBlockSize);
    for (std::uint64_t i = 0; i < filled; ++i) {
      const std::uint64_t valid =
          i * kBlockSize < got
              ? std::min<std::uint64_t>(kBlockSize, got - i * kBlockSize)
              : 0;
      RHODOS_RETURN_IF_ERROR(InsertBlock(
          h.file, block + i,
          std::span<const std::uint8_t>(runbuf).subspan(i * kBlockSize,
                                                        kBlockSize),
          valid));
    }
    const std::uint64_t want =
        std::min(len - done, run_blocks * kBlockSize - in_block);
    const std::uint64_t usable = got > in_block ? got - in_block : 0;
    const std::uint64_t take = std::min(want, usable);
    std::memcpy(out.data() + done, runbuf.data() + in_block, take);
    done += take;
    if (take < want) break;  // short read from the server: stop at its EOF
  }
  return done;
}

Result<std::uint64_t> FileAgent::CachedWrite(OpenHandle& h,
                                             std::uint64_t offset,
                                             std::span<const std::uint8_t> in) {
  // Refused before anything is cached: a wrapping write would land its
  // tail at the start of the file.
  if (!RangeFits(offset, in.size())) {
    return Error{ErrorCode::kInvalidArgument, "write range wraps past 2^64"};
  }
  if (!config_.delayed_write || config_.cache_blocks == 0) {
    RHODOS_ASSIGN_OR_RETURN(std::uint64_t n,
                            ServerPwrite(h.file, offset, in));
    // A write-through bypasses the cache on the way down, but blocks read
    // earlier may still be cached: patch them so a later read does not
    // serve the stale image.
    std::uint64_t done = 0;
    while (done < n) {
      const std::uint64_t pos = offset + done;
      const std::uint64_t block = pos / kBlockSize;
      const std::uint64_t in_block = pos % kBlockSize;
      const std::uint64_t len =
          std::min<std::uint64_t>(n - done, kBlockSize - in_block);
      if (CacheEntry* entry = cache_.Touch(BlockKey{h.file, block})) {
        std::memcpy(entry->data.data() + in_block, in.data() + done, len);
        entry->valid_bytes = std::max(entry->valid_bytes, in_block + len);
      }
      done += len;
    }
    h.size = std::max(h.size, offset + n);
    h.wrote = true;
    NoteLocalSize(h.file, h.size);
    return n;
  }
  std::uint64_t done = 0;
  while (done < in.size()) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t block = pos / kBlockSize;
    const std::uint64_t in_block = pos % kBlockSize;
    const std::uint64_t n =
        std::min<std::uint64_t>(in.size() - done, kBlockSize - in_block);
    CacheEntry* entry = cache_.Touch(BlockKey{h.file, block});
    if (entry == nullptr) {
      // Populate the block (read-modify-write) unless we overwrite it all.
      std::vector<std::uint8_t> blockbuf(kBlockSize, 0);
      std::uint64_t valid = 0;
      const bool whole = in_block == 0 && n == kBlockSize;
      if (!whole && block * kBlockSize < h.size) {
        auto got = ServerPread(h.file, block * kBlockSize, blockbuf);
        if (!got.ok()) return got;
        valid = *got;
        ++stats_.cache_misses;
      }
      RHODOS_RETURN_IF_ERROR(InsertBlock(h.file, block, blockbuf, valid));
      entry = cache_.Touch(BlockKey{h.file, block});
    } else {
      ++stats_.cache_hits;
    }
    std::memcpy(entry->data.data() + in_block, in.data() + done, n);
    entry->valid_bytes = std::max(entry->valid_bytes, in_block + n);
    MarkDirty(h.file, *entry);
    done += n;
  }
  h.size = std::max(h.size, offset + done);
  h.wrote = true;
  NoteLocalSize(h.file, h.size);
  return done;
}

Result<std::uint64_t> FileAgent::Pread(ObjectDescriptor od,
                                       std::uint64_t offset,
                                       std::span<std::uint8_t> out) {
  obs::OpScope op(obs::TracerOf(Obs()), "agent", "pread");
  obs::LatencyScope lat(Obs(), "agent.op_latency_ns");
  RHODOS_ASSIGN_OR_RETURN(OpenHandle * h, Handle(od));
  MaybeBackgroundWriteback();
  return CachedRead(*h, offset, out);
}

Result<std::uint64_t> FileAgent::Pwrite(ObjectDescriptor od,
                                        std::uint64_t offset,
                                        std::span<const std::uint8_t> in) {
  obs::OpScope op(obs::TracerOf(Obs()), "agent", "pwrite");
  obs::LatencyScope lat(Obs(), "agent.op_latency_ns");
  RHODOS_ASSIGN_OR_RETURN(OpenHandle * h, Handle(od));
  MaybeBackgroundWriteback();
  return CachedWrite(*h, offset, in);
}

Result<std::uint64_t> FileAgent::Read(ObjectDescriptor od,
                                      std::span<std::uint8_t> out) {
  obs::OpScope op(obs::TracerOf(Obs()), "agent", "read");
  obs::LatencyScope lat(Obs(), "agent.op_latency_ns");
  RHODOS_ASSIGN_OR_RETURN(OpenHandle * h, Handle(od));
  MaybeBackgroundWriteback();
  RHODOS_ASSIGN_OR_RETURN(std::uint64_t n, CachedRead(*h, h->cursor, out));
  h->cursor += n;
  return n;
}

Result<std::uint64_t> FileAgent::Write(ObjectDescriptor od,
                                       std::span<const std::uint8_t> in) {
  obs::OpScope op(obs::TracerOf(Obs()), "agent", "write");
  obs::LatencyScope lat(Obs(), "agent.op_latency_ns");
  RHODOS_ASSIGN_OR_RETURN(OpenHandle * h, Handle(od));
  MaybeBackgroundWriteback();
  RHODOS_ASSIGN_OR_RETURN(std::uint64_t n, CachedWrite(*h, h->cursor, in));
  h->cursor += n;
  return n;
}

Result<std::int64_t> FileAgent::Lseek(ObjectDescriptor od,
                                      std::int64_t offset,
                                      SeekWhence whence) {
  RHODOS_ASSIGN_OR_RETURN(OpenHandle * h, Handle(od));
  std::int64_t base = 0;
  switch (whence) {
    case SeekWhence::kSet: base = 0; break;
    case SeekWhence::kCurrent: base = static_cast<std::int64_t>(h->cursor);
      break;
    case SeekWhence::kEnd: base = static_cast<std::int64_t>(h->size); break;
  }
  const std::int64_t target = base + offset;
  if (target < 0) {
    return Error{ErrorCode::kInvalidArgument, "seek before start of file"};
  }
  h->cursor = static_cast<std::uint64_t>(target);
  return target;
}

Result<file::FileAttributes> FileAgent::GetAttribute(ObjectDescriptor od) {
  obs::OpScope op(obs::TracerOf(Obs()), "agent", "getattr");
  obs::LatencyScope lat(Obs(), "agent.op_latency_ns");
  RHODOS_ASSIGN_OR_RETURN(OpenHandle * h, Handle(od));
  FileRequest req{0, h->file, cb_address_};
  const auto body = req.Encode();
  RHODOS_ASSIGN_OR_RETURN(sim::Payload reply,
                          Call(RouteShard(h->file), FsOp::kGetAttr, body));
  Deserializer in{reply};
  RHODOS_RETURN_IF_ERROR(DecodeStatus(in));
  const std::uint64_t version = in.U64();
  file::FileAttributes attrs = DecodeAttributes(in);
  const SimTime expiry = in.I64();
  if (!in.ok()) return Error{ErrorCode::kInternal, "bad getattr reply"};
  NoteVersion(h->file, version);
  AdoptGrant(h->file, expiry, &attrs);
  // The agent may hold dirty data the server has not seen yet (and the
  // callback's cached size must reflect it too).
  NoteLocalSize(h->file, h->size);
  attrs.size = std::max(attrs.size, h->size);
  return attrs;
}

Result<FileId> FileAgent::Snapshot(ObjectDescriptor od) {
  return Capture(od, FsOp::kSnapshot);
}

Result<FileId> FileAgent::Clone(ObjectDescriptor od) {
  return Capture(od, FsOp::kClone);
}

Result<FileId> FileAgent::Capture(ObjectDescriptor od, FsOp op) {
  obs::OpScope scope(obs::TracerOf(Obs()), "agent",
                     op == FsOp::kSnapshot ? "snapshot" : "clone");
  obs::LatencyScope lat(Obs(), "agent.op_latency_ns");
  RHODOS_ASSIGN_OR_RETURN(OpenHandle * h, Handle(od));
  const FileId file = h->file;
  // The image must capture everything THIS client has written, including
  // delayed writes still sitting in the agent cache.
  RHODOS_RETURN_IF_ERROR(FlushDirtyFiles({&file, 1}));
  FileRequest req{NextToken(), file, cb_address_};
  const auto body = req.Encode();
  RHODOS_ASSIGN_OR_RETURN(sim::Payload reply, Call(RouteShard(file), op, body));
  Deserializer in{reply};
  RHODOS_RETURN_IF_ERROR(DecodeStatus(in));
  const FileId image{in.U64()};
  const std::uint64_t version = in.U64();
  const SimTime expiry = in.I64();
  if (!in.ok()) return Error{ErrorCode::kInternal, "bad capture reply"};
  // The image lives on its origin's shard (it shares the origin's blocks);
  // pin it in the facility-shared router so every agent routes it there.
  if (router_ != nullptr) router_->PinFileTo(image, file);
  NoteVersion(image, version);
  AdoptGrant(image, expiry, nullptr);
  return image;
}

Status FileAgent::Flush(ObjectDescriptor od) {
  obs::OpScope op(obs::TracerOf(Obs()), "agent", "flush");
  RHODOS_ASSIGN_OR_RETURN(OpenHandle * h, Handle(od));
  // One batched exchange, driven off the per-file dirty index: cost is
  // proportional to this file's dirty blocks, not to the whole cache.
  const FileId file = h->file;
  return FlushDirtyFiles({&file, 1});
}

Status FileAgent::FlushAll() { return FlushDirtyFiles(DirtyFiles()); }

Result<FileId> FileAgent::FileOf(ObjectDescriptor od) const {
  auto it = handles_.find(od);
  if (it == handles_.end()) {
    return Error{ErrorCode::kBadDescriptor, "descriptor not open"};
  }
  return it->second.file;
}

void FileAgent::Crash() {
  stats_.invalidations += cache_.size();
  handles_.clear();
  cache_.Clear();
  dirty_blocks_ = 0;
  first_dirty_at_.clear();
  versions_.clear();
  callbacks_.clear();
  name_cache_.clear();
  naming_generation_ = 0;
}

}  // namespace rhodos::agent
