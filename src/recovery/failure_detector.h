// Heartbeat failure detector.
//
// The paper's reliability story assumes somebody notices that a service has
// stopped answering: retransmission masks loss, but routing around a dead
// replica and scheduling its repair need an explicit verdict. The detector
// probes a bus service through the bus (charging real simulated network
// time), or takes a liveness observation made without the bus, and runs
// the classic three-state machine:
//
//   healthy --1st miss--> suspected --3rd miss--> down --1 answer--> healthy
//
// Deliberately timeout-based, not perfect: a partition and a crash look the
// same from here, which is exactly the ambiguity the recovery orchestrator
// has to live with.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "sim/message_bus.h"
#include "obs/metrics.h"

namespace rhodos::recovery {

enum class ServiceState : std::uint8_t {
  kUnknown = 0,  // never probed or observed
  kHealthy,
  kSuspected,  // missed probes, but not enough to declare death
  kDown,
};

// Consecutive misses before a service is suspected, and before it is down.
inline constexpr int kSuspectAfterMisses = 1;
inline constexpr int kDownAfterMisses = 3;

struct FailureDetectorStats {
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
  std::uint64_t suspicions = 0;   // kHealthy/kUnknown -> kSuspected edges
  std::uint64_t declared_down = 0;
  std::uint64_t recoveries = 0;   // kSuspected/kDown -> kHealthy edges
};

inline constexpr obs::CounterField<FailureDetectorStats>
    kFailureDetectorCounters[] = {
        {"detector.probes", &FailureDetectorStats::probes},
        {"detector.probe_failures", &FailureDetectorStats::probe_failures},
        {"detector.suspicions", &FailureDetectorStats::suspicions},
        {"detector.declared_down", &FailureDetectorStats::declared_down},
        {"detector.recoveries", &FailureDetectorStats::recoveries},
};

class FailureDetector {
 public:
  explicit FailureDetector(sim::MessageBus* bus) : bus_(bus) {}

  // One bus probe of the service at `address`, now; returns its (possibly
  // new) state.
  ServiceState Probe(const std::string& address);

  // Feeds one liveness observation made without the bus (true = answered).
  // Disks are local to the file service machine, not bus services: the
  // recovery manager reads their reachability directly and reports it here.
  ServiceState Observe(const std::string& address, bool answered);

  ServiceState StateOf(const std::string& address) const;

  const FailureDetectorStats& stats() const { return stats_; }
  void ResetStats() { stats_ = FailureDetectorStats{}; }

 private:
  struct Entry {
    ServiceState state = ServiceState::kUnknown;
    int consecutive_misses = 0;
  };

  sim::MessageBus* bus_;
  std::map<std::string, Entry> entries_;
  FailureDetectorStats stats_;
};

}  // namespace rhodos::recovery
