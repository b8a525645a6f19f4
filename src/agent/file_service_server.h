// Server-side adapter exposing a FileService on the message bus.
//
// The adapter is what makes the file service "nearly stateless" (§3): the
// only per-client state it keeps is a bounded table of recently executed
// non-idempotent requests (create/delete/resize/close tokens) so that an
// at-least-once retransmission replays the original reply instead of
// re-executing. Positional reads and writes need no such memory — they are
// idempotent by construction.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "agent/fs_protocol.h"
#include "common/sim_clock.h"
#include "file/file_service.h"
#include "obs/metrics.h"
#include "sim/message_bus.h"

namespace rhodos::agent {

struct FsServerStats {
  std::uint64_t requests = 0;
  std::uint64_t duplicate_replays = 0;  // served from the token table
  // Callback/lease coherence.
  std::uint64_t callback_grants = 0;          // promises issued or renewed
  std::uint64_t callback_breaks = 0;          // break notifications delivered
  std::uint64_t callback_break_failures = 0;  // undeliverable (lease waited out)
  std::uint64_t callback_expired = 0;         // holders dropped at lease expiry
  std::uint64_t callback_grace_waits = 0;     // mutations stalled by crash grace
  // Cache-tier read fan-out: cold preads answered with a peer redirect
  // instead of bytes from the disks.
  std::uint64_t redirects_issued = 0;
};

inline constexpr obs::CounterField<FsServerStats> kFsServerCounters[] = {
    {"service.requests", &FsServerStats::requests},
    {"service.duplicate_replays", &FsServerStats::duplicate_replays},
    {"file.callback_grants", &FsServerStats::callback_grants},
    {"file.callback_breaks", &FsServerStats::callback_breaks},
    {"file.callback_break_failures", &FsServerStats::callback_break_failures},
    {"file.callback_expired", &FsServerStats::callback_expired},
    {"file.callback_grace_waits", &FsServerStats::callback_grace_waits},
    {"file.redirects_issued", &FsServerStats::redirects_issued},
};

// Cache-coherence callback policy (NOT the disk-substrate DiskLease): how
// long a callback promise stays trustworthy without renewal.
struct CallbackConfig {
  // Lease duration: the staleness bound when a break cannot be delivered.
  SimTime lease_ns = 2 * kSimSecond;
};

// Cache-tier read fan-out policy (E24): a file whose pread arrival rate
// crosses `hot_read_threshold` per one-second load window is HOT, and cold
// reads of it that the origin would serve from disk are redirected to
// callback-holding peer agents (a range its block pool or track cache holds
// is served as bytes). Off by default — it trades one extra exchange per
// redirected miss for keeping a million-reader hot file off the origin's
// spindles, a trade the workload has to opt into (benches that gate exact
// exchange counts keep the paper topology).
struct CacheTierConfig {
  bool enabled = false;
  // Preads inside one load window that make a file hot. 0 = never hot.
  std::uint32_t hot_read_threshold = 64;
};

class FileServiceServer {
 public:
  // Registers the handler under `address` on the bus and hooks the
  // service's mutations and crashes for callback breaks. The peer-sampling
  // stream is seeded from the service's shard index, so two shards never
  // sample peers in lockstep.
  FileServiceServer(file::FileService* service, sim::MessageBus* bus,
                    std::string address, CallbackConfig callback = {},
                    CacheTierConfig cache_tier = {});
  ~FileServiceServer();

  FileServiceServer(const FileServiceServer&) = delete;
  FileServiceServer& operator=(const FileServiceServer&) = delete;

  const std::string& address() const { return address_; }
  const FsServerStats& stats() const { return stats_; }
  void ResetStats() { stats_ = FsServerStats{}; }
  // Outstanding (unexpired, unbroken) callback promises across all files.
  std::size_t CallbackHolderCount() const;
  // Files whose pread load is at or above the hot threshold right now
  // (the `file.hot_files` gauge).
  std::size_t HotFileCount() const;

  // Epoch-fence drop: discard every promise WITHOUT opening a grace window.
  // Safe only because the router epoch bump revokes the agents' trust in
  // those promises synchronously (HoldsCallback checks the epoch), so no
  // client can act on a lease the server no longer remembers. A real crash
  // (no epoch edge) must go through OnServiceCrash's grace instead.
  void DropCallbacksFenced() { callbacks_.clear(); }

 private:
  // One outstanding callback promise: the holder's bus address, the sim
  // time its lease expires, and — for the cache-tier read router — which
  // block ranges the holder is believed to cache plus how many redirects
  // have been pointed at it (the power-of-two-choices load signal). The
  // range registry is advisory: a holder that evicted a block simply
  // refuses the peer-read and the reader falls back to the origin.
  struct Holder {
    std::string address;
    SimTime expiry = 0;
    // Coalesced [first_block, end_block) ranges believed cached.
    std::map<std::uint64_t, std::uint64_t> blocks;
    std::uint64_t serves_assigned = 0;
  };

  sim::Payload Handle(std::uint32_t opcode,
                      std::span<const std::uint8_t> request);
  sim::Payload Dispatch(std::uint32_t opcode,
                        std::span<const std::uint8_t> request);

  sim::Payload HandleCreate(std::span<const std::uint8_t> body);
  sim::Payload HandleDelete(std::span<const std::uint8_t> body);
  sim::Payload HandleOpen(std::span<const std::uint8_t> body);
  sim::Payload HandlePread(std::span<const std::uint8_t> body);
  sim::Payload HandlePwriteVec(std::span<const std::uint8_t> body);
  sim::Payload HandleGetAttr(std::span<const std::uint8_t> body);
  sim::Payload HandleResize(std::span<const std::uint8_t> body);
  sim::Payload HandleRenew(std::span<const std::uint8_t> body);
  sim::Payload HandleCapture(FsOp op, std::span<const std::uint8_t> body);

  // Token table: replay memory for non-idempotent requests.
  const sim::Payload* FindToken(std::uint64_t token) const;
  void RememberToken(std::uint64_t token, sim::Payload reply);

  // --- Callback table -------------------------------------------------------

  // Issue (or renew) a callback promise for `cb` on `file`. Returns the
  // lease expiry, or 0 when no promise was granted (empty address).
  // Piggybacked on open/pread/getattr/create/renew replies.
  SimTime Grant(FileId file, const std::string& cb);
  // FileService mutation hook: revoke every other holder's promise before
  // the mutation's reply (break-before-reply). `writer` is the mutating
  // agent's own callback address — it learns the new version from the reply.
  void OnMutation(FileId file, std::uint64_t version);
  // FileService crash hook: volatile table lost; open a grace window until
  // the latest outstanding lease expiry instead of breaking.
  void OnServiceCrash();
  // Periodic hygiene: drop expired holders.
  void SweepExpired();

  // --- Cache-tier read router ----------------------------------------------

  // Rolls `file`'s sliding load window forward and counts one pread.
  // Returns true when the file is hot (this or the previous full window met
  // the threshold — hotness survives a window boundary).
  bool NoteReadLoad(FileId file);
  // Registers [first_block, end_block) as cached by holder `cb` (no-op when
  // the holder is unknown or the address empty).
  void NoteHeldBlocks(FileId file, const std::string& cb,
                      std::uint64_t first_block, std::uint64_t end_block);
  // Picks up to kRedirectPeers distinct unexpired holders covering the
  // range (excluding the requester), least-loaded-of-two-random first.
  std::vector<std::string> PickPeers(FileId file, const std::string& requester,
                                     std::uint64_t first_block,
                                     std::uint64_t end_block);
  std::uint64_t NextRand();

  file::FileService* service_;
  sim::MessageBus* bus_;
  std::string address_;
  std::unordered_map<std::uint64_t, sim::Payload> token_replies_;
  std::deque<std::uint64_t> token_order_;
  CallbackConfig cb_config_;
  CacheTierConfig ct_config_;
  std::unordered_map<std::uint64_t, std::vector<Holder>> callbacks_;
  // Per-file pread load, two sliding windows deep (current + previous).
  struct ReadLoad {
    SimTime window_start = 0;
    std::uint64_t count = 0;
    std::uint64_t prev = 0;  // the previous full window's count
  };
  std::unordered_map<std::uint64_t, ReadLoad> read_load_;
  std::uint64_t rng_state_ = 1;
  // The callback address of the request currently being handled (empty when
  // none): excluded from break fan-out so a writer never breaks itself.
  std::string current_requester_;
  // Mutations must not proceed before this time: a crashed server cannot
  // break the promises it lost with its table, so it honours them by
  // waiting out the longest outstanding lease (NFSv4-style grace).
  SimTime grace_until_ = 0;
  SimTime next_sweep_ = 0;
  FsServerStats stats_;
};

}  // namespace rhodos::agent
