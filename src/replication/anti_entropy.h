// Background anti-entropy for the replication service.
//
// The scanner is the drain side of hinted handoff and the safety net under
// it. Every tick it replays whatever hint chains are complete (cheap:
// proportional to the writes missed, touches only lagging replicas); every
// `scan_interval_ticks` ticks it also runs a full scan that diffs replica
// version vectors group by group and rebuilds anything hints cannot cover —
// torn (dirty) replicas, overflowed queues, replicas readmitted after long
// partitions. This replaces the old repair-only-on-disk-return model: a
// replica that diverged without its disk ever "returning" (flapping,
// partition, mid-write crash) still converges within a bounded number of
// ticks.
#pragma once

#include <cstdint>

#include "replication/replication_service.h"
#include "obs/metrics.h"

namespace rhodos::replication {

struct AntiEntropyConfig {
  // Ticks between full version-vector scans (hint drains happen every
  // tick). Zero disables the periodic full scan.
  std::uint32_t scan_interval_ticks = 4;
  // Whether the full scan may fall back to full-copy rebuilds. Off, the
  // scanner only ever replays hints (diagnostic configurations).
  bool full_repair = true;
};

struct AntiEntropyStats {
  std::uint64_t ticks = 0;
  std::uint64_t scans = 0;  // full version-vector scans
  std::uint64_t replicas_caught_up = 0;
};

inline constexpr obs::CounterField<AntiEntropyStats> kAntiEntropyCounters[] = {
    {"replication.anti_entropy_scans", &AntiEntropyStats::scans},
    {"replication.anti_entropy_repairs", &AntiEntropyStats::replicas_caught_up},
};

class AntiEntropyScanner {
 public:
  explicit AntiEntropyScanner(ReplicationService* replication,
                              AntiEntropyConfig config = {})
      : replication_(replication), config_(config) {}

  // One background round: drain complete hint chains everywhere, plus the
  // periodic full scan when due. Returns replicas brought back to current.
  std::size_t Tick();

  const AntiEntropyStats& stats() const { return stats_; }
  void ResetStats() { stats_ = AntiEntropyStats{}; }

 private:
  ReplicationService* replication_;
  AntiEntropyConfig config_;
  AntiEntropyStats stats_;
};

}  // namespace rhodos::replication
