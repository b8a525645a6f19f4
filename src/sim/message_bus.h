// Simulated interconnect between client machines and servers.
//
// RHODOS is a message-passing distributed OS; its file facility claims that
// (a) per-level caching avoids most messages to lower layers, and (b) all
// inter-service messages are idempotent, so retransmission after a failure
// "does not produce any uncertain effect" (§3). MessageBus is the instrument
// for both claims: it counts messages and bytes, charges simulated latency,
// and can drop or duplicate deliveries to exercise the at-least-once path.
//
// Delivery model per Call():
//   * drop, request lost  — the handler never runs, the caller times out;
//   * drop, reply lost    — the handler RUNS, but the caller still times
//                           out (the hard case for idempotency);
//   * duplicate           — the handler runs twice (a retransmitted request
//                           arriving after the original was served);
//   * service down / partitioned — the handler never runs and the caller
//                           times out, indistinguishable (to one call) from
//                           a lost request;
//   * normal              — the handler runs once.
//
// Every failed exchange charges the caller a timeout interval of simulated
// time: a caller cannot learn "no reply is coming" faster than its timeout.
//
// Beyond per-message loss, the bus carries whole-service fault state — a
// service can be *down*, or *partitioned* from a specific caller — driven
// either manually or by a seeded, time-ordered FaultPlan that is executed
// as simulated time advances (the chaos harness's script).
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "obs/observability.h"

namespace rhodos::sim {

using Payload = std::vector<std::uint8_t>;

// A service handler: takes an opcode and a request body, returns a reply.
using ServiceHandler =
    std::function<Payload(std::uint32_t opcode, std::span<const std::uint8_t>)>;

struct NetworkConfig {
  SimTime latency_per_message = 500 * kSimMicrosecond;  // LAN round-trip half
  SimTime latency_per_kib = 80 * kSimMicrosecond;       // wire time
  // How long a caller waits before concluding a reply is not coming. Every
  // failed exchange (drop, down service, partition) costs this much
  // simulated time on top of the wire time already spent.
  SimTime timeout_interval = 5 * kSimMillisecond;
  double drop_rate = 0.0;       // probability a Call() loses a message
  double duplicate_rate = 0.0;  // probability the request is delivered twice
};

struct NetStats {
  std::uint64_t calls = 0;
  std::uint64_t deliveries = 0;        // handler invocations
  std::uint64_t drops_request = 0;
  std::uint64_t drops_reply = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t timeouts = 0;          // exchanges that cost a timeout wait
  std::uint64_t rejected_down = 0;     // calls to a down service
  std::uint64_t rejected_partitioned = 0;
  std::uint64_t probes = 0;
  std::uint64_t bytes_moved = 0;
  SimTime time_charged = 0;
};

inline constexpr obs::CounterField<NetStats> kNetCounters[] = {
    {"bus.calls", &NetStats::calls},
    {"bus.deliveries", &NetStats::deliveries},
    {"bus.drops_request", &NetStats::drops_request},
    {"bus.drops_reply", &NetStats::drops_reply},
    {"bus.duplicates", &NetStats::duplicates},
    {"bus.timeouts", &NetStats::timeouts},
    {"bus.rejected_down", &NetStats::rejected_down},
    {"bus.rejected_partitioned", &NetStats::rejected_partitioned},
    {"bus.probes", &NetStats::probes},
    {"bus.bytes_moved", &NetStats::bytes_moved},
    {"bus.time_charged_ns", &NetStats::time_charged},
};

// --- Scheduled faults ---------------------------------------------------------

enum class FaultAction : std::uint8_t {
  kServiceDown,   // target service stops answering
  kServiceUp,     // target service answers again
  kPartition,     // caller <-> target link goes dark ("" caller = everyone)
  kHeal,          // the partition lifts
  kDiskCrash,     // forwarded to the fault handler (the bus knows no disks)
  kDiskRecover,   // forwarded to the fault handler
  kDiskPartition, // forwarded: disk unreachable, volatile state intact
  kDiskHeal,      // forwarded: the disk partition lifts
};

// One scheduled fault. Fires once, when simulated time reaches `at` AND the
// bus has seen `after_calls` calls (to `target` if `target` is a registered
// service, total otherwise — disk targets count client traffic).
struct FaultEvent {
  SimTime at = 0;
  std::uint64_t after_calls = 0;
  FaultAction action{FaultAction::kServiceDown};
  std::string target;  // service address, or DiskFaultTarget(id)
  std::string caller;  // partitions only; "" partitions every caller
};

// Target string for disk fault events (resolved by the installed handler).
inline std::string DiskFaultTarget(std::uint32_t disk) {
  return "disk-" + std::to_string(disk);
}

// A seeded, time-ordered fault script. The builder methods append events
// and return *this so test plans read as scripts:
//
//   FaultPlan plan;
//   plan.DiskCrash(200 * kSimMillisecond, 1)
//       .DiskRecover(1 * kSimSecond, 1)
//       .ServiceDown(2 * kSimSecond, "file-service").AfterCalls(200)
//       .ServiceUp(3 * kSimSecond, "file-service");
struct FaultPlan {
  std::uint64_t seed = 1;  // reserved for randomized plan generators
  std::vector<FaultEvent> events;

  FaultPlan& Add(FaultEvent e) {
    events.push_back(std::move(e));
    return *this;
  }
  FaultPlan& ServiceDown(SimTime at, std::string service) {
    return Add({at, 0, FaultAction::kServiceDown, std::move(service), ""});
  }
  FaultPlan& ServiceUp(SimTime at, std::string service) {
    return Add({at, 0, FaultAction::kServiceUp, std::move(service), ""});
  }
  FaultPlan& Partition(SimTime at, std::string caller, std::string service) {
    return Add({at, 0, FaultAction::kPartition, std::move(service),
                std::move(caller)});
  }
  FaultPlan& Heal(SimTime at, std::string caller, std::string service) {
    return Add(
        {at, 0, FaultAction::kHeal, std::move(service), std::move(caller)});
  }
  FaultPlan& DiskCrash(SimTime at, std::uint32_t disk) {
    return Add({at, 0, FaultAction::kDiskCrash, DiskFaultTarget(disk), ""});
  }
  FaultPlan& DiskRecover(SimTime at, std::uint32_t disk) {
    return Add({at, 0, FaultAction::kDiskRecover, DiskFaultTarget(disk), ""});
  }
  // Partition one disk server: it stops answering but keeps its volatile
  // state, unlike a crash. Heal lifts it.
  FaultPlan& DiskPartition(SimTime at, std::uint32_t disk) {
    return Add(
        {at, 0, FaultAction::kDiskPartition, DiskFaultTarget(disk), ""});
  }
  FaultPlan& DiskHeal(SimTime at, std::uint32_t disk) {
    return Add({at, 0, FaultAction::kDiskHeal, DiskFaultTarget(disk), ""});
  }
  // A flapping disk: `cycles` crash/recover pairs, one edge every `period`.
  FaultPlan& DiskFlap(SimTime at, std::uint32_t disk, SimTime period,
                      int cycles) {
    for (int i = 0; i < cycles; ++i) {
      DiskCrash(at + 2 * static_cast<SimTime>(i) * period, disk);
      DiskRecover(at + (2 * static_cast<SimTime>(i) + 1) * period, disk);
    }
    return *this;
  }
  // Adds a call-count condition to the most recently added event.
  FaultPlan& AfterCalls(std::uint64_t n) {
    if (!events.empty()) events.back().after_calls = n;
    return *this;
  }
};

class MessageBus {
 public:
  explicit MessageBus(SimClock* clock, NetworkConfig config = {},
                      std::uint64_t fault_seed = 7)
      : clock_(clock), config_(config), rng_(fault_seed) {}

  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  void RegisterService(std::string address, ServiceHandler handler) {
    services_[std::move(address)] = std::move(handler);
  }
  void UnregisterService(const std::string& address) {
    services_.erase(address);
  }

  void SetConfig(NetworkConfig config) { config_ = config; }
  const NetworkConfig& config() const { return config_; }
  SimClock* clock() const { return clock_; }
  const NetStats& stats() const { return stats_; }
  void ResetStats() { stats_ = NetStats{}; }

  // Installed by the facility; every RpcClient on this bus inherits it.
  void SetObservability(obs::Observability* o) { obs_ = o; }
  obs::Observability* observability() const { return obs_; }

  // One send/receive exchange. Returns kMessageDropped when either direction
  // is lost or the service is down/partitioned; the caller (an agent) is
  // expected to retry, relying on the idempotence of the operation.
  // `caller` identifies the calling machine for partition faults.
  Result<Payload> Call(const std::string& address, std::uint32_t opcode,
                       std::span<const std::uint8_t> request,
                       const std::string& caller = "");

  // Delivery-layer liveness probe: charges one small round trip and reports
  // whether the service would currently answer `caller`, without invoking
  // its handler. The failure detector's heartbeat.
  Status Probe(const std::string& address, const std::string& caller = "");

  // --- Service fault state ---------------------------------------------------

  void SetServiceDown(const std::string& address) { down_.insert(address); }
  void SetServiceUp(const std::string& address) { down_.erase(address); }
  void PartitionPair(std::string caller, std::string service) {
    partitions_.emplace(std::move(caller), std::move(service));
  }
  void HealPair(const std::string& caller, const std::string& service) {
    partitions_.erase({caller, service});
  }
  bool IsPartitioned(const std::string& caller,
                     const std::string& service) const {
    return partitions_.count({caller, service}) != 0 ||
           partitions_.count({"", service}) != 0;
  }

  // Installs a scheduled fault script; replaces any previous plan. Events
  // fire from PumpFaults(), which Call()/Probe() invoke automatically —
  // workloads that advance the clock without calling may pump explicitly.
  void SetFaultPlan(FaultPlan plan);

  // Receives kDiskCrash / kDiskRecover events (the facility wires this to
  // its disk registry).
  void SetFaultHandler(std::function<void(const FaultEvent&)> handler) {
    fault_handler_ = std::move(handler);
  }

  // Applies every scheduled event whose conditions are met at the current
  // simulated time.
  void PumpFaults();

  // Lifts all fault state: pending plan events are cancelled, every service
  // is up, every partition healed. (End-of-chaos "restore the world".)
  void ClearFaults();

  std::size_t PendingFaultEvents() const { return plan_.events.size(); }

 private:
  void Charge(std::size_t bytes);
  void ChargeTimeout();
  bool EventReady(const FaultEvent& e) const;
  void ApplyEvent(const FaultEvent& e);
  std::uint64_t CallsSeen(const std::string& target) const;

  SimClock* clock_;
  NetworkConfig config_;
  Rng rng_;
  NetStats stats_;
  obs::Observability* obs_ = nullptr;
  std::unordered_map<std::string, ServiceHandler> services_;

  // Fault state.
  std::unordered_set<std::string> down_;
  std::set<std::pair<std::string, std::string>> partitions_;  // caller,service
  FaultPlan plan_;  // pending (unfired) events, sorted by `at`
  std::function<void(const FaultEvent&)> fault_handler_;
  std::unordered_map<std::string, std::uint64_t> calls_to_;
};

// --- At-least-once RPC with production retry semantics -------------------------

// Backoff of every RpcClient: the delay starts at kInitialBackoff, grows by
// kBackoffMultiplier per attempt up to kMaxBackoff, and is spread by
// +/- kBackoffJitter of itself, deterministically per endpoint.
inline constexpr SimTime kInitialBackoff = 1 * kSimMillisecond;
inline constexpr double kBackoffMultiplier = 2.0;
inline constexpr SimTime kMaxBackoff = 256 * kSimMillisecond;
inline constexpr double kBackoffJitter = 0.25;
// Below the cap the delay sequence is strictly increasing (the least delay
// of step n+1 exceeds the largest of step n), which the backoff tests rely
// on.
static_assert(kBackoffMultiplier * (1.0 - kBackoffJitter) >
                  1.0 + kBackoffJitter,
              "backoff must grow faster than its jitter spreads it");
// Consecutive failed Call()s after which the peer is suspected dead (the
// circuit-breaker threshold: a lossy link yields interleaved successes, a
// dead service yields an unbroken failure run).
inline constexpr std::uint64_t kUnhealthyThreshold = 3;

// Retry policy for one RpcClient.
struct RpcRetryConfig {
  int max_attempts = 8;
  // Total simulated-time budget for one Call(), including timeout waits and
  // backoff sleeps. 0 = unlimited (bounded by max_attempts alone). When the
  // budget is exhausted the call fails with kTimeout.
  SimTime deadline = 0;
};

// Health ledger of one RpcClient: enough to tell "lossy" (failures with
// interleaved successes, consecutive_failures resets) from "dead"
// (consecutive_failures climbs past the threshold).
struct RpcHealth {
  std::uint64_t calls = 0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;  // failed Call()s, not failed attempts
  std::uint64_t deadline_exhausted = 0;
  std::uint64_t retries = 0;  // attempts after the first, across all Call()s
  std::uint64_t consecutive_failures = 0;
  SimTime backoff_waited = 0;  // total simulated backoff time
};

// consecutive_failures is breaker state, not a count: it is not exported.
// The push-model rpc.circuit_trips is counted at the trip site instead.
inline constexpr obs::CounterField<RpcHealth> kRpcCounters[] = {
    {"rpc.calls", &RpcHealth::calls},
    {"rpc.successes", &RpcHealth::successes},
    {"rpc.failures", &RpcHealth::failures},
    {"rpc.deadline_exhausted", &RpcHealth::deadline_exhausted},
    {"rpc.retries", &RpcHealth::retries},
    {"rpc.backoff_wait_ns", &RpcHealth::backoff_waited},
};

// At-least-once RPC endpoint used by the agents: retries Call() on loss
// with exponential backoff under a per-call deadline, and keeps health
// statistics so callers can route around a dead peer.
class RpcClient {
 public:
  RpcClient(MessageBus* bus, std::string address, int max_attempts = 8)
      : RpcClient(bus, std::move(address),
                  RpcRetryConfig{.max_attempts = max_attempts}) {}

  RpcClient(MessageBus* bus, std::string address, RpcRetryConfig config,
            std::string caller = "");

  Result<Payload> Call(std::uint32_t opcode,
                       std::span<const std::uint8_t> request);

  std::uint64_t retries() const { return health_.retries; }
  const std::string& address() const { return address_; }
  const std::string& caller() const { return caller_; }
  const RpcHealth& health() const { return health_; }
  // Zeroes the counts; the breaker's consecutive-failure run survives.
  void ResetStats() {
    health_ = RpcHealth{.consecutive_failures = health_.consecutive_failures};
  }

  // Circuit-breaker verdict: true once kUnhealthyThreshold consecutive
  // Call()s have failed. A later success closes the circuit again.
  bool SuspectedDead() const {
    return health_.consecutive_failures >= kUnhealthyThreshold;
  }

  // Backoff delays charged by the most recent Call() (test introspection).
  const std::vector<SimTime>& last_backoffs() const { return last_backoffs_; }

 private:
  SimTime BackoffDelay(int attempt);  // attempt >= 1
  SimTime Elapsed(SimTime start) const;

  MessageBus* bus_;
  std::string address_;
  std::string caller_;
  RpcRetryConfig config_;
  Rng jitter_rng_;
  RpcHealth health_;
  std::vector<SimTime> last_backoffs_;
};

}  // namespace rhodos::sim
