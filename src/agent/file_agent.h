// The file agent (paper §3, §5) — the client machine's doorway to the
// basic file service.
//
// "On each machine, all client processes acquire the services of the
// distributed file facility through special processes known as a file
// agent and a transaction agent." The file agent:
//
//  * resolves attributed names through the naming service and returns
//    object descriptors strictly greater than 100 000; resolved bindings
//    are cached per agent and invalidated by the naming service's
//    generation counter, so a warm re-open does zero naming work;
//  * keeps the per-descriptor cursor, so read/write/lseek are agent-side
//    and every message to the server is positional — which is what makes
//    the operations idempotent and the file service "nearly stateless";
//  * caches "a substantial amount of file data to avoid trying to access
//    the file service for each request from a client", block-grained with
//    a delayed-write policy. The cache's per-file index yields a file's
//    dirty blocks in block order, so adjacent ones coalesce into runs; a
//    whole file (or the whole cache) goes to the server in ONE PwriteVec
//    exchange at flush/close/eviction pressure; a background write-behind
//    flushes on dirty-count or sim-time age so Close is not a latency
//    cliff;
//  * keeps its cache coherent across machines with the server's per-file
//    version tokens (piggybacked on open/getattr/pread/pwrite replies):
//    a mismatched token drops the file's clean cached blocks before they
//    can serve a stale image — AFS-style validation, Sprite-style delayed
//    write;
//  * holds callback promises: it serves break notifications and peer reads
//    on its own bus address, asks the server for a promise on read-path
//    replies, and while it holds an unbroken, unexpired promise serves
//    warm opens and clean cached reads with zero exchanges;
//  * retries lost messages over the at-least-once RPC client, counting on
//    idempotence for safety;
//  * routes every server call through the placement layer when the facility
//    is sharded: one RPC client per metadata shard, the shard picked per
//    FileId (creates by idempotency token) from the shared ShardRouter, so
//    a suspected shard is routed around without the agent noticing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "agent/fs_protocol.h"
#include "common/lru_cache.h"
#include "common/result.h"
#include "common/sim_clock.h"
#include "common/types.h"
#include "naming/naming_service.h"
#include "obs/metrics.h"
#include "placement/shard_router.h"
#include "sim/message_bus.h"

namespace rhodos::agent {

enum class SeekWhence : std::uint8_t { kSet = 0, kCurrent = 1, kEnd = 2 };

struct FileAgentConfig {
  std::size_t cache_blocks = 64;  // client block cache capacity
  bool delayed_write = true;      // false: write through to the server
  sim::RpcRetryConfig rpc{};  // attempts/backoff/deadline for server calls
  // Background write-behind (checked at the top of data operations; the
  // simulation has no threads). When the agent holds at least
  // `writeback_threshold` dirty blocks across all files, everything is
  // flushed in one batched exchange; a file whose oldest dirty block is
  // older than `writeback_age_ns` of sim time is flushed likewise.
  // 0 disables the respective trigger.
  std::size_t writeback_threshold = 32;
  SimTime writeback_age_ns = 200 * kSimMillisecond;
};

struct FileAgentStats {
  std::uint64_t cache_hits = 0;    // blocks served locally
  std::uint64_t cache_misses = 0;
  std::uint64_t descriptors_issued = 0;
  std::uint64_t writebacks = 0;    // dirty blocks pushed to the server
  std::uint64_t invalidations = 0;  // cached blocks dropped (delete, crash)
  std::uint64_t writeback_batches = 0;  // PwriteVec exchanges issued
  std::uint64_t writeback_runs = 0;     // coalesced extents across batches
  // Clean blocks dropped because the server's version token moved —
  // another machine wrote the file behind our back.
  std::uint64_t stale_invalidations = 0;
  std::uint64_t name_cache_hits = 0;  // opens resolved without the naming svc
  std::uint64_t naming_unregister_failures = 0;  // delete left naming behind
  // Callback/lease coherence.
  std::uint64_t callback_fast_opens = 0;  // opens served with zero exchanges
  std::uint64_t callback_renewals = 0;    // expired promises re-armed
  std::uint64_t callback_breaks = 0;      // break notifications received
  // Cache-tier read fan-out (E24).
  std::uint64_t peer_serves = 0;         // peer-reads this agent answered
  std::uint64_t peer_serve_rejects = 0;  // peer-reads refused (stale/miss)
  std::uint64_t peer_fetches = 0;        // reads satisfied from a peer
  std::uint64_t peer_fallbacks = 0;      // redirects that fell back to origin
};

inline constexpr obs::CounterField<FileAgentStats> kFileAgentCounters[] = {
    {"agent.cache.hits", &FileAgentStats::cache_hits},
    {"agent.cache.misses", &FileAgentStats::cache_misses},
    {"agent.cache.writebacks", &FileAgentStats::writebacks},
    {"agent.cache.invalidations", &FileAgentStats::invalidations},
    {"agent.descriptors_issued", &FileAgentStats::descriptors_issued},
    {"agent.writeback_batches", &FileAgentStats::writeback_batches},
    {"agent.writeback_runs", &FileAgentStats::writeback_runs},
    {"agent.stale_invalidations", &FileAgentStats::stale_invalidations},
    {"agent.name_cache_hits", &FileAgentStats::name_cache_hits},
    {"agent.naming_unregister_failures",
     &FileAgentStats::naming_unregister_failures},
    {"agent.callback_fast_opens", &FileAgentStats::callback_fast_opens},
    {"agent.callback_renewals", &FileAgentStats::callback_renewals},
    {"agent.callback_breaks", &FileAgentStats::callback_breaks},
    {"agent.peer_serves", &FileAgentStats::peer_serves},
    {"agent.peer_serve_rejects", &FileAgentStats::peer_serve_rejects},
    {"agent.peer_fetches", &FileAgentStats::peer_fetches},
    {"agent.peer_fallbacks", &FileAgentStats::peer_fallbacks},
};

class FileAgent {
 public:
  // Unsharded agent: one RPC client against `fs_address`.
  FileAgent(MachineId machine, sim::MessageBus* bus, std::string fs_address,
            naming::NamingFacade* naming, FileAgentConfig config = {});
  // Shard-routed agent: one RPC client per metadata shard, routes chosen by
  // the facility's shared router (which also owns failover state).
  FileAgent(MachineId machine, sim::MessageBus* bus,
            placement::ShardRouter* router, naming::NamingFacade* naming,
            FileAgentConfig config = {});
  ~FileAgent();

  FileAgent(const FileAgent&) = delete;
  FileAgent& operator=(const FileAgent&) = delete;

  // --- The paper's client operations ---------------------------------------

  // create: makes the file, registers its attributed name, opens it.
  Result<ObjectDescriptor> Create(const naming::AttributedName& name,
                                  file::ServiceType type,
                                  std::uint64_t size_hint = 0);

  // open: resolves the attributed name to a system name, opens, returns a
  // descriptor > 100000.
  Result<ObjectDescriptor> Open(const naming::AttributedName& name);
  Result<ObjectDescriptor> OpenById(FileId file);

  Status Close(ObjectDescriptor od);

  // delete: by name (resolves first).
  Status Delete(const naming::AttributedName& name);

  // Sequential read/write at the descriptor's cursor.
  Result<std::uint64_t> Read(ObjectDescriptor od, std::span<std::uint8_t> out);
  Result<std::uint64_t> Write(ObjectDescriptor od,
                              std::span<const std::uint8_t> in);

  // Positional pread/pwrite (do not move the cursor).
  Result<std::uint64_t> Pread(ObjectDescriptor od, std::uint64_t offset,
                              std::span<std::uint8_t> out);
  Result<std::uint64_t> Pwrite(ObjectDescriptor od, std::uint64_t offset,
                               std::span<const std::uint8_t> in);

  Result<std::int64_t> Lseek(ObjectDescriptor od, std::int64_t offset,
                             SeekWhence whence);

  Result<file::FileAttributes> GetAttribute(ObjectDescriptor od);

  // O(1) point-in-time images (E23). Snapshot returns a new immutable
  // FileId frozen at the current contents; Clone returns a new writable
  // FileId sharing blocks with the source until first write (COW). The
  // agent flushes its own dirty blocks for the file first, so the image
  // captures everything this client has written. The image is pinned to
  // the source's shard in the facility router. Returned ids are opened
  // with OpenById.
  Result<FileId> Snapshot(ObjectDescriptor od);
  Result<FileId> Clone(ObjectDescriptor od);

  // Pushes this descriptor's dirty cached blocks to the server in one
  // batched exchange (cost proportional to that file's dirty blocks).
  Status Flush(ObjectDescriptor od);
  Status FlushAll();

  // File id behind a descriptor (introspection/tests).
  Result<FileId> FileOf(ObjectDescriptor od) const;

  // Client machine crash: all agent state (cursors, cache) is lost.
  void Crash();

  const FileAgentStats& stats() const { return stats_; }
  std::uint64_t rpc_retries() const { return rpc_health().retries; }
  // Aggregated over the per-shard clients (one client when unsharded).
  const sim::RpcHealth& rpc_health() const;
  // Zeroes the agent's and its RPC clients' counters.
  void ResetStats();
  MachineId machine() const { return machine_; }

  // Bus address this agent receives callback breaks and peer reads on
  // (tests partition it to model undeliverable breaks).
  const std::string& callback_address() const { return cb_address_; }
  // True while the agent holds an unbroken, unexpired callback promise for
  // `file` granted under the current routing epoch.
  bool HoldsCallback(FileId file) const;

  // Files whose server version token this agent tracks (introspection).
  std::size_t VersionTokenCount() const { return versions_.size(); }

  // Dirty cached blocks, of every file or of one (introspection/tests).
  std::size_t DirtyBlocks() const { return dirty_blocks_; }
  std::size_t DirtyBlocks(FileId file) const { return DirtySet(file).size(); }

 private:
  struct OpenHandle {
    FileId file{};
    std::uint64_t cursor = 0;
    std::uint64_t size = 0;  // agent's view; refreshed on open/getattr
    // Opened without a server exchange (under a callback promise): the
    // server holds no pin for it, so its close is agent-local too.
    bool local = false;
    // Wrote through this handle: a LOCAL close must still force the
    // service's delayed writes (normally the server-side close's job) so
    // close-to-stable durability survives the zero-exchange open.
    bool wrote = false;
  };

  // One callback promise held by this agent: trusted until the lease
  // expires, a break arrives, or the routing epoch moves (a failed-over or
  // readmitted shard never saw the grant — PR 7 fencing semantics).
  struct CallbackState {
    SimTime expiry = 0;
    std::uint64_t epoch = 0;  // router epoch at grant time
    file::FileAttributes attrs{};
    bool attrs_valid = false;  // attrs trustworthy for zero-exchange opens
  };

  struct CacheEntry {
    std::vector<std::uint8_t> data;  // kBlockSize
    std::uint64_t valid_bytes = 0;   // bytes of the block that are meaningful
    bool dirty = false;
  };

  Result<OpenHandle*> Handle(ObjectDescriptor od);
  Result<FileId> Capture(ObjectDescriptor od, FsOp op);

  // RPC plumbing: every call names the shard it goes to. Unsharded agents
  // have exactly one client and every route is shard 0.
  Result<sim::Payload> Call(std::uint32_t shard, FsOp op,
                            std::span<const std::uint8_t> body);
  std::uint32_t RouteShard(FileId file);
  std::uint32_t RouteTokenShard(std::uint64_t token);

  // Cache plumbing. Every fill is clean and happens under the file's
  // current known version token, so all clean entries of a file are at
  // versions_[file].
  Status InsertBlock(FileId file, std::uint64_t block,
                     std::span<const std::uint8_t> data,
                     std::uint64_t valid_bytes);
  Status EvictOne();

  // Dirty-block plumbing. Invariant: dirty_blocks_ counts the entries whose
  // dirty flag is set, and first_dirty_at_ holds exactly the files that
  // have one.
  void MarkDirty(FileId file, CacheEntry& entry);
  // `file`'s dirty blocks, found through the cache's per-file index.
  std::set<std::uint64_t> DirtySet(FileId file) const;
  // Every file with a dirty block, in the order a batched flush sends them.
  std::vector<FileId> DirtyFiles() const;

  // Builds coalesced (offset, run) extents from `file`'s dirty `blocks`;
  // appends to `out`, returns how many extents were added.
  std::size_t BuildExtents(FileId file, const std::set<std::uint64_t>& blocks,
                           std::vector<PwriteExtent>& out);
  // Flushes the dirty blocks of `files` (must be distinct) to the server in
  // ONE PwriteVec exchange; marks them clean and adopts the reply's version
  // tokens. No-op when nothing is dirty.
  Status FlushDirtyFiles(std::span<const FileId> files);
  // Age/threshold write-behind; failures are swallowed (the data stays
  // dirty and the next trigger retries).
  void MaybeBackgroundWriteback();

  // Version-token coherence. NoteVersion: a read-path reply told us the
  // file's current version; a change means another machine wrote it — drop
  // the file's clean cached blocks. AdoptWriteVersion: our own write came
  // back with `token` after `bumps` server-side mutations of ours; a larger
  // jump means a foreign write interleaved — drop clean blocks except the
  // ones we just pushed (`keep`), which are known current.
  void NoteVersion(FileId file, std::uint64_t token);
  void AdoptWriteVersion(FileId file, std::uint64_t token, std::uint64_t bumps,
                         const std::set<std::uint64_t>& keep);
  void InvalidateStaleClean(FileId file, const std::set<std::uint64_t>* keep);

  // --- Callback/lease coherence ---------------------------------------------

  void RegisterCallbackService();
  sim::Payload HandleCallbackMessage(std::uint32_t opcode,
                                     std::span<const std::uint8_t> request);
  // Cache-tier peer serving: answer another agent's kPeerRead with clean
  // cached bytes — ONLY when this agent's promise is unbroken and its
  // version token equals the request's expected token; anything else is a
  // refusal and the reader falls back. Takes cache_mu_ around the cache
  // walk only.
  sim::Payload HandlePeerRead(std::span<const std::uint8_t> request);
  // Walk the redirect's candidate peers; first successful fetch wins.
  // Errors mean "no peer served" and the caller re-reads from the origin.
  Result<std::uint64_t> FetchFromPeers(FileId file, std::uint64_t offset,
                                       std::span<std::uint8_t> out,
                                       std::uint64_t expected_version,
                                       const std::vector<std::string>& peers);
  // Adopt a grant piggybacked on a server reply (expiry 0 = no promise).
  void AdoptGrant(FileId file, SimTime expiry,
                  const file::FileAttributes* attrs);
  // Local writes extend the size the callback's cached attrs vouch for.
  void NoteLocalSize(FileId file, std::uint64_t size);
  // One-exchange lease re-arm + version revalidation (after expiry).
  Status RenewCallback(FileId file);

  // Clears the name cache when the naming generation moved.
  void SyncNameCache();

  // Uncached positional ops against the server.
  Result<std::uint64_t> ServerPread(FileId file, std::uint64_t offset,
                                    std::span<std::uint8_t> out);
  Result<std::uint64_t> ServerPwrite(FileId file, std::uint64_t offset,
                                     std::span<const std::uint8_t> in);

  Result<std::uint64_t> CachedRead(OpenHandle& h, std::uint64_t offset,
                                   std::span<std::uint8_t> out);
  Result<std::uint64_t> CachedWrite(OpenHandle& h, std::uint64_t offset,
                                    std::span<const std::uint8_t> in);

  std::uint64_t NextToken();

  // The facility's observability bundle travels on the bus; null-safe.
  obs::Observability* Obs() const { return bus_->observability(); }

  MachineId machine_;
  sim::MessageBus* bus_;
  // One at-least-once client per metadata shard (a single entry when the
  // facility is unsharded). Null router means "everything is shard 0".
  std::vector<std::unique_ptr<sim::RpcClient>> rpcs_;
  placement::ShardRouter* router_ = nullptr;
  naming::NamingFacade* naming_;
  FileAgentConfig config_;
  mutable sim::RpcHealth health_agg_;  // scratch for rpc_health()
  std::unordered_map<ObjectDescriptor, OpenHandle> handles_;
  BlockLruCache<CacheEntry> cache_;
  std::size_t dirty_blocks_ = 0;
  // Sim time each file with dirty blocks first went dirty (for the age
  // trigger). Its iteration order is the file order of a whole-cache flush,
  // so the extents of a batched PwriteVec.
  std::unordered_map<FileId, SimTime> first_dirty_at_;
  // Latest server version token seen per file.
  std::unordered_map<FileId, std::uint64_t> versions_;
  // Callback promises held, keyed by file.
  std::unordered_map<FileId, CallbackState> callbacks_;
  std::string cb_address_;
  // Guards cache_ where the bus-facing peer-serve path overlaps the
  // flush path: HandlePeerRead's cache walk, and FlushDirtyFiles' two
  // bookkeeping sections. NEVER held across an RPC — the flush releases it
  // around its PwriteVec exchange, so a slow peer-serve can't stall the
  // write-behind drain (and a peer-serve arriving mid-flush can't deadlock
  // against it). The client-facing API stays externally synchronized, as
  // the rest of the agent always was.
  mutable std::mutex cache_mu_;
  // name → FileId bindings, valid while naming_generation_ is current.
  std::map<naming::AttributedName, FileId> name_cache_;
  std::uint64_t naming_generation_ = 0;
  ObjectDescriptor next_descriptor_;
  std::uint64_t next_token_{1};
  FileAgentStats stats_;
};

}  // namespace rhodos::agent
