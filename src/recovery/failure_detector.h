// Heartbeat failure detector over the message bus.
//
// The paper's reliability story assumes somebody notices that a service has
// stopped answering: retransmission masks loss, but routing around a dead
// replica and scheduling its repair need an explicit verdict. The detector
// probes each watched service through the bus (charging real simulated
// network time) and runs the classic three-state machine:
//
//   healthy --k failures--> suspected --k more--> down --1 success--> healthy
//
// Deliberately timeout-based, not perfect: a partition and a crash look the
// same from here, which is exactly the ambiguity the recovery orchestrator
// has to live with.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/message_bus.h"
#include "obs/metrics.h"

namespace rhodos::recovery {

enum class ServiceState : std::uint8_t {
  kUnknown = 0,  // never probed / not watched
  kHealthy,
  kSuspected,  // missed probes, but not enough to declare death
  kDown,
};

struct FailureDetectorConfig {
  int suspect_after = 1;  // consecutive probe misses before kSuspected
  int down_after = 3;     // consecutive probe misses before kDown
};

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
  explicit FailureDetector(sim::MessageBus* bus,
                           FailureDetectorConfig config = {})
      : bus_(bus), config_(config) {}

  void Watch(std::string address) { watched_[std::move(address)]; }

  // Replaces the bus probe with a local liveness check (true = answered).
  // The facility uses this to watch disks, which are not bus services and
  // whose reachability a co-located recovery manager can read directly.
  using Prober = std::function<bool(const std::string&)>;
  void SetProber(Prober prober) { prober_ = std::move(prober); }

  // One probe of one service, now; returns its (possibly new) state.
  ServiceState Probe(const std::string& address);

  // One probe round over every watched service.
  void ProbeAll();

  ServiceState StateOf(const std::string& address) const;
  bool AllHealthy() const;

  const FailureDetectorStats& stats() const { return stats_; }
  void ResetStats() { stats_ = FailureDetectorStats{}; }

 private:
  struct Entry {
    ServiceState state = ServiceState::kUnknown;
    int consecutive_misses = 0;
  };

  sim::MessageBus* bus_;
  Prober prober_;
  FailureDetectorConfig config_;
  std::map<std::string, Entry> watched_;  // ordered: deterministic rounds
  FailureDetectorStats stats_;
};

}  // namespace rhodos::recovery
