// Tests for the failure detector and the recovery orchestrator: the probe
// state machine, replica routing when a disk dies, and automatic repair —
// with no manual Repair() call — when the disk returns to service.
#include <gtest/gtest.h>

#include "core/facility.h"
#include "recovery/failure_detector.h"
#include "recovery/recovery_manager.h"

namespace rhodos::recovery {
namespace {

sim::Payload Echo(std::uint32_t opcode, std::span<const std::uint8_t> req) {
  sim::Payload reply{static_cast<std::uint8_t>(opcode)};
  reply.insert(reply.end(), req.begin(), req.end());
  return reply;
}

core::FacilityConfig SmallConfig() {
  core::FacilityConfig cfg;
  cfg.disk_count = 3;
  cfg.geometry.total_fragments = 4096;
  cfg.geometry.fragments_per_track = 32;
  return cfg;
}

std::vector<std::uint8_t> Fill(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return v;
}

TEST(FailureDetectorTest, RunsTheThreeStateMachine) {
  SimClock clock;
  sim::MessageBus bus(&clock);
  bus.RegisterService("svc", Echo);
  FailureDetector fd(&bus);  // suspect after 1 miss, down after 3
  EXPECT_EQ(fd.StateOf("svc"), ServiceState::kUnknown);

  EXPECT_EQ(fd.Probe("svc"), ServiceState::kHealthy);
  EXPECT_EQ(fd.StateOf("svc"), ServiceState::kHealthy);

  bus.SetServiceDown("svc");
  EXPECT_EQ(fd.Probe("svc"), ServiceState::kSuspected);
  EXPECT_EQ(fd.Probe("svc"), ServiceState::kSuspected);
  EXPECT_EQ(fd.Probe("svc"), ServiceState::kDown);
  EXPECT_EQ(fd.StateOf("svc"), ServiceState::kDown);
  EXPECT_EQ(fd.stats().suspicions, 1u);
  EXPECT_EQ(fd.stats().declared_down, 1u);

  bus.SetServiceUp("svc");
  EXPECT_EQ(fd.Probe("svc"), ServiceState::kHealthy);
  EXPECT_EQ(fd.stats().recoveries, 1u);
  EXPECT_EQ(fd.stats().probes, 5u);
  EXPECT_EQ(fd.stats().probe_failures, 3u);
  EXPECT_GT(bus.stats().probes, 0u);
}

TEST(FailureDetectorTest, ObservationsRunTheSameMachineOffTheBus) {
  // Disks are not bus services: their reachability is observed directly
  // and fed in, through the same counters and the same three states.
  SimClock clock;
  sim::MessageBus bus(&clock);
  FailureDetector fd(&bus);
  const std::string disk = sim::DiskFaultTarget(2);
  EXPECT_EQ(fd.Observe(disk, true), ServiceState::kHealthy);
  EXPECT_EQ(fd.Observe(disk, false), ServiceState::kSuspected);
  EXPECT_EQ(fd.Observe(disk, false), ServiceState::kSuspected);
  EXPECT_EQ(fd.Observe(disk, false), ServiceState::kDown);
  EXPECT_EQ(fd.Observe(disk, true), ServiceState::kHealthy);
  EXPECT_EQ(fd.stats().probes, 5u);
  EXPECT_EQ(fd.stats().probe_failures, 3u);
  EXPECT_EQ(fd.stats().suspicions, 1u);
  EXPECT_EQ(fd.stats().declared_down, 1u);
  EXPECT_EQ(fd.stats().recoveries, 1u);
  EXPECT_EQ(bus.stats().probes, 0u);  // nothing went over the wire
  EXPECT_EQ(clock.Now(), 0u);
}

TEST(FailureDetectorTest, PartitionLooksLikeDeath) {
  // Timeout-based detection cannot tell a partition from a crash — and the
  // detector does not pretend to.
  SimClock clock;
  sim::MessageBus bus(&clock);
  bus.RegisterService("svc", Echo);
  FailureDetector fd(&bus);
  ASSERT_EQ(fd.Probe("svc"), ServiceState::kHealthy);

  bus.PartitionPair("", "svc");  // everyone, including the detector
  for (int i = 0; i < 3; ++i) (void)fd.Probe("svc");
  EXPECT_EQ(fd.StateOf("svc"), ServiceState::kDown);

  bus.HealPair("", "svc");
  EXPECT_EQ(fd.Probe("svc"), ServiceState::kHealthy);
}

TEST(FailureDetectorTest, FacilityWatchesItsFileService) {
  // The recovery loop probes the file service (shard 0) and every disk on
  // each tick.
  core::DistributedFileFacility f(SmallConfig());
  f.recovery().Tick();
  EXPECT_EQ(f.detector().StateOf(core::kFileServiceAddress),
            ServiceState::kHealthy);
  EXPECT_EQ(f.detector().StateOf(sim::DiskFaultTarget(0)),
            ServiceState::kHealthy);

  f.bus().SetServiceDown(core::kFileServiceAddress);
  for (int i = 0; i < 3; ++i) f.recovery().Tick();
  EXPECT_EQ(f.detector().StateOf(core::kFileServiceAddress),
            ServiceState::kDown);
  EXPECT_EQ(f.recovery().stats().shard_failovers, 1u);

  f.bus().SetServiceUp(core::kFileServiceAddress);
  f.recovery().Tick();
  EXPECT_EQ(f.detector().StateOf(core::kFileServiceAddress),
            ServiceState::kHealthy);
  EXPECT_EQ(f.recovery().stats().shard_readmissions, 1u);
}

TEST(RecoveryManagerTest, DiskCrashMarksItsReplicasSuspected) {
  core::DistributedFileFacility f(SmallConfig());
  auto g = f.replication().CreateReplicated(file::ServiceType::kTransaction,
                                            3, 4096);
  ASSERT_TRUE(g.ok());
  const auto v1 = Fill(4096, 0x11);
  ASSERT_TRUE(f.replication().Write(*g, 0, v1).ok());

  auto reps = f.replication().Replicas(*g);
  ASSERT_TRUE(reps.ok());
  ASSERT_EQ(reps->size(), 3u);
  const DiskId dead = (*reps)[0].disk;

  ASSERT_TRUE(f.CrashDisk(dead).ok());
  f.recovery().Tick();
  EXPECT_EQ(f.recovery().stats().disk_failures_detected, 1u);
  EXPECT_GE(f.recovery().stats().replicas_marked_down, 1u);
  EXPECT_FALSE(f.recovery().DiskBelievedUp(dead));

  reps = f.replication().Replicas(*g);
  ASSERT_TRUE(reps.ok());
  for (const auto& r : *reps) {
    EXPECT_EQ(r.suspected_down, r.disk == dead);
  }
}

TEST(RecoveryManagerTest, ReadFailsOverAndRepairRunsAutomatically) {
  // The acceptance path: crash the disk under the group's first replica,
  // read around the corpse, write while degraded, bring the disk back —
  // and the control loop repairs the stale replica on its own.
  core::DistributedFileFacility f(SmallConfig());
  auto& repl = f.replication();
  auto g = repl.CreateReplicated(file::ServiceType::kTransaction, 3, 4096);
  ASSERT_TRUE(g.ok());
  const auto v1 = Fill(4096, 0x11);
  const auto v2 = Fill(4096, 0x22);
  ASSERT_TRUE(repl.Write(*g, 0, v1).ok());

  auto reps = repl.Replicas(*g);
  ASSERT_TRUE(reps.ok());
  const DiskId dead = (*reps)[0].disk;
  ASSERT_TRUE(f.CrashDisk(dead).ok());
  f.recovery().Tick();

  // Reads route around the suspected replica immediately.
  const std::uint64_t failovers_before = repl.stats().failovers;
  std::vector<std::uint8_t> out(4096);
  ASSERT_TRUE(repl.Read(*g, 0, out).ok());
  EXPECT_EQ(out, v1);
  EXPECT_GT(repl.stats().failovers, failovers_before);

  // A degraded write still succeeds on the survivors.
  ASSERT_TRUE(repl.Write(*g, 0, v2).ok());
  EXPECT_GE(repl.stats().degraded_writes, 1u);
  auto converged = repl.AllCurrent(*g);
  ASSERT_TRUE(converged.ok());
  EXPECT_FALSE(*converged);

  // The disk returns; the next tick notices and repairs. Nobody calls
  // Repair() by hand.
  const std::uint64_t repairs_before = repl.stats().repairs;
  ASSERT_TRUE(f.RecoverDisk(dead).ok());
  f.recovery().Tick();
  EXPECT_EQ(f.recovery().stats().disk_recoveries_detected, 1u);
  EXPECT_GE(f.recovery().stats().auto_repairs, 1u);
  EXPECT_GT(repl.stats().repairs, repairs_before);
  EXPECT_TRUE(f.recovery().DiskBelievedUp(dead));

  converged = repl.AllCurrent(*g);
  ASSERT_TRUE(converged.ok());
  EXPECT_TRUE(*converged);
  // Every replica — including the once-dead one — now holds v2.
  reps = repl.Replicas(*g);
  ASSERT_TRUE(reps.ok());
  for (const auto& r : *reps) {
    std::vector<std::uint8_t> copy(4096);
    ASSERT_TRUE(f.files().Read(r.file, 0, copy).ok());
    EXPECT_EQ(copy, v2) << "replica on disk " << r.disk.value;
  }
}

TEST(RecoveryManagerTest, RepairAllStaleSweepsEveryGroup) {
  core::DistributedFileFacility f(SmallConfig());
  auto& repl = f.replication();
  auto g1 = repl.CreateReplicated(file::ServiceType::kTransaction, 3, 4096);
  auto g2 = repl.CreateReplicated(file::ServiceType::kTransaction, 3, 4096);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  ASSERT_TRUE(repl.Write(*g1, 0, Fill(4096, 1)).ok());
  ASSERT_TRUE(repl.Write(*g2, 0, Fill(4096, 2)).ok());

  // Both groups lose the replica on disk 1 for one write round.
  ASSERT_TRUE(f.CrashDisk(DiskId{1}).ok());
  ASSERT_TRUE(repl.Write(*g1, 0, Fill(4096, 3)).ok());
  ASSERT_TRUE(repl.Write(*g2, 0, Fill(4096, 4)).ok());
  ASSERT_TRUE(f.RecoverDisk(DiskId{1}).ok());

  EXPECT_EQ(f.recovery().RepairAllStale(), 2u);
  auto c1 = repl.AllCurrent(*g1);
  auto c2 = repl.AllCurrent(*g2);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_TRUE(*c1);
  EXPECT_TRUE(*c2);
}

std::uint64_t Counter(core::DistributedFileFacility& f,
                      const std::string& wanted) {
  for (const auto& [name, value] : f.StatsSnapshot().counters) {
    if (name == wanted) return value;
  }
  ADD_FAILURE() << "no counter " << wanted;
  return 0;
}

// Pins the loop's schedule: hint replay on every tick, a full-copy scan
// on every 4th tick counted from construction or the last ResetStats, and
// one detector probe per disk and per shard on each tick.
TEST(RecoveryManagerTest, LoopScheduleIsHintsEveryTickFullScanEveryFourth) {
  core::FacilityConfig cfg = SmallConfig();
  cfg.sharding.file_shards = 2;
  cfg.replication.max_hints_per_replica = 2;
  core::DistributedFileFacility f(cfg);
  auto& repl = f.replication();
  const std::uint64_t probes_per_tick = cfg.disk_count + 2;

  // A replica whose disk missed one write catches up by hint replay on
  // the first tick after the disk returns.
  auto hinted = repl.CreateReplicated(file::ServiceType::kTransaction, 3,
                                      4096);
  ASSERT_TRUE(hinted.ok());
  ASSERT_TRUE(repl.Write(*hinted, 0, Fill(4096, 1)).ok());
  auto reps = repl.Replicas(*hinted);
  ASSERT_TRUE(reps.ok());
  const DiskId lagging = (*reps)[0].disk;
  ASSERT_TRUE(f.CrashDisk(lagging).ok());
  ASSERT_TRUE(repl.Write(*hinted, 0, Fill(4096, 2)).ok());
  ASSERT_TRUE(f.RecoverDisk(lagging).ok());
  f.ResetStats();
  f.recovery().Tick();
  EXPECT_TRUE(*repl.AllCurrent(*hinted));
  EXPECT_EQ(repl.stats().hints_replayed, 1u);
  EXPECT_EQ(Counter(f, "replication.anti_entropy_repairs"), 1u);
  EXPECT_EQ(Counter(f, "replication.anti_entropy_scans"), 0u);
  EXPECT_EQ(Counter(f, "detector.probes"), probes_per_tick);

  // A replica whose hint queue overflowed needs a full copy: the cheap
  // pass skips it, so it converges only on the 4th tick's full scan.
  auto overflowed = repl.CreateReplicated(file::ServiceType::kTransaction,
                                          3, 4096);
  ASSERT_TRUE(overflowed.ok());
  ASSERT_TRUE(repl.Write(*overflowed, 0, Fill(4096, 3)).ok());
  reps = repl.Replicas(*overflowed);
  ASSERT_TRUE(reps.ok());
  const DiskId behind = (*reps)[1].disk;
  ASSERT_TRUE(f.CrashDisk(behind).ok());
  for (std::uint8_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(repl.Write(*overflowed, 0, Fill(4096, 4 + i)).ok());
  }
  ASSERT_TRUE(f.RecoverDisk(behind).ok());
  f.ResetStats();
  for (int tick = 1; tick <= 3; ++tick) {
    f.recovery().Tick();
    EXPECT_FALSE(*repl.AllCurrent(*overflowed)) << "tick " << tick;
    EXPECT_EQ(Counter(f, "replication.anti_entropy_scans"), 0u);
    EXPECT_EQ(Counter(f, "detector.probes"), probes_per_tick * tick);
  }
  f.recovery().Tick();
  EXPECT_TRUE(*repl.AllCurrent(*overflowed));
  EXPECT_TRUE(*repl.AllCurrent(*hinted));
  EXPECT_EQ(Counter(f, "replication.anti_entropy_scans"), 1u);
  EXPECT_EQ(Counter(f, "replication.anti_entropy_repairs"), 1u);
  EXPECT_EQ(repl.stats().hints_replayed, 0u);

  // scans == ticks / 4, counted again from the last ResetStats.
  for (int tick = 5; tick <= 10; ++tick) {
    f.recovery().Tick();
    EXPECT_EQ(Counter(f, "replication.anti_entropy_scans"),
              static_cast<std::uint64_t>(tick / 4));
  }
  f.ResetStats();
  for (int tick = 1; tick <= 9; ++tick) {
    f.recovery().Tick();
    EXPECT_EQ(Counter(f, "replication.anti_entropy_scans"),
              static_cast<std::uint64_t>(tick / 4));
    EXPECT_EQ(Counter(f, "recovery.ticks"), static_cast<std::uint64_t>(tick));
    EXPECT_EQ(Counter(f, "detector.probes"), probes_per_tick * tick);
  }
  EXPECT_EQ(Counter(f, "replication.anti_entropy_repairs"), 0u);
}

TEST(RecoveryManagerTest, TickIsQuietWhenNothingIsWrong) {
  core::DistributedFileFacility f(SmallConfig());
  for (int i = 0; i < 5; ++i) f.recovery().Tick();
  EXPECT_EQ(f.recovery().stats().ticks, 5u);
  EXPECT_EQ(f.recovery().stats().disk_failures_detected, 0u);
  EXPECT_EQ(f.recovery().stats().auto_repairs, 0u);
}

}  // namespace
}  // namespace rhodos::recovery
