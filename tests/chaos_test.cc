// Chaos tests: seeded fault plans against the assembled facility. Each run
// drives the mixed workload through a storm, heals the world, and the
// ChaosReport's invariants (no corrupt success, committed durability,
// convergence, clean fsck) must all hold. Everything is deterministic given
// (workload seed, fault plan), which the last test pins down.
#include <gtest/gtest.h>

#include "core/chaos_runner.h"
#include "sim/parallel.h"

namespace rhodos::core {
namespace {

FacilityConfig SmallConfig() {
  FacilityConfig cfg;
  cfg.disk_count = 3;
  cfg.geometry.total_fragments = 4096;
  cfg.geometry.fragments_per_track = 32;
  return cfg;
}

TEST(ChaosTest, CleanRunViolatesNothing) {
  // Control: no faults. The workload must complete with zero failures —
  // if this breaks, the harness itself is wrong, not the fault tolerance.
  DistributedFileFacility f(SmallConfig());
  ChaosWorkloadConfig wl;
  wl.seed = 7;
  wl.operations = 200;
  ChaosRunner runner(&f, wl);
  auto report = runner.Run(sim::FaultPlan{});
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->op_failures, 0u) << report->Summary();
  EXPECT_GT(report->txn_commits, 0u);
}

TEST(ChaosTest, OverlappedLanesNeverShareADevice) {
  // Striped reads and writes, write-behind flushes, fresh shadow pages and
  // per-disk commit applies all run as lanes of overlapped sections; the
  // timing model is only sound if no device serves two lanes of one.
  DistributedFileFacility f(SmallConfig());
  ChaosWorkloadConfig wl;
  wl.seed = 23;
  wl.operations = 300;
  ChaosRunner runner(&f, wl);
  const std::uint64_t before = sim::LaneConflicts();
  auto report = runner.Run(sim::FaultPlan{});
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_GT(report->txn_commits, 0u);
  EXPECT_EQ(sim::LaneConflicts(), before);
}

TEST(ChaosTest, SurvivesDiskCrashesMidTransaction) {
  // Two disks die and return at staggered times while transactions commit
  // against files on them. Disk 0 carries the intention log and stays up.
  DistributedFileFacility f(SmallConfig());
  ChaosWorkloadConfig wl;
  wl.seed = 11;
  wl.operations = 300;
  ChaosRunner runner(&f, wl);
  sim::FaultPlan plan;
  plan.DiskCrash(100 * kSimMillisecond, 1)
      .DiskRecover(300 * kSimMillisecond, 1)
      .DiskCrash(350 * kSimMillisecond, 2)
      .DiskRecover(450 * kSimMillisecond, 2);
  auto report = runner.Run(std::move(plan));
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report->ok()) << report->Summary();
  // The faults actually bit, and the control loop actually reacted.
  EXPECT_GT(report->op_failures, 0u) << report->Summary();
  EXPECT_GE(report->disk_failures_seen, 2u);
  EXPECT_GE(report->disk_recoveries_seen, 2u);
  EXPECT_GT(report->txn_commits, 0u);
}

TEST(ChaosTest, SurvivesFileServiceOutageDuringWrites) {
  // The file service goes dark for 160ms of simulated time while agents
  // write through it (no delayed-write shelter), under a tight RPC
  // deadline; then a disk dies and returns for good measure.
  FacilityConfig cfg = SmallConfig();
  cfg.agent.delayed_write = false;
  cfg.agent.rpc.deadline = 30 * kSimMillisecond;
  DistributedFileFacility f(cfg);
  ChaosWorkloadConfig wl;
  wl.seed = 22;
  wl.operations = 300;
  ChaosRunner runner(&f, wl);
  sim::FaultPlan plan;
  plan.ServiceDown(100 * kSimMillisecond, kFileServiceAddress)
      .ServiceUp(260 * kSimMillisecond, kFileServiceAddress)
      .DiskCrash(320 * kSimMillisecond, 1)
      .DiskRecover(420 * kSimMillisecond, 1);
  auto report = runner.Run(std::move(plan));
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_GT(report->op_failures, 0u) << report->Summary();
  EXPECT_GE(report->disk_failures_seen, 1u);
}

TEST(ChaosTest, SurvivesPartitionWithReplyLoss) {
  // The client machine is partitioned from the file service while the
  // network drops a tenth of all messages — including replies to requests
  // the server already executed — and a disk fails under a replica.
  FacilityConfig cfg = SmallConfig();
  cfg.network.drop_rate = 0.1;
  cfg.agent.delayed_write = false;
  DistributedFileFacility f(cfg);
  ChaosWorkloadConfig wl;
  wl.seed = 33;
  wl.operations = 250;
  ChaosRunner runner(&f, wl);
  sim::FaultPlan plan;
  // Disk service time dominates the simulated clock (~16ms/op), so the
  // windows are sized against that scale, not the 2ms/op workload tick.
  plan.Partition(300 * kSimMillisecond, "machine-0", kFileServiceAddress)
      .Heal(1500 * kSimMillisecond, "machine-0", kFileServiceAddress)
      .DiskCrash(2000 * kSimMillisecond, 2)
      .DiskRecover(2800 * kSimMillisecond, 2);
  auto report = runner.Run(std::move(plan));
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_GE(report->disk_failures_seen, 1u);
  // The partition and the lossy link really bit at the network layer; the
  // agent's backoff retries outlasted the partition window, so no operation
  // failed end to end — the masking worked, and it was not free.
  EXPECT_GT(f.bus().stats().rejected_partitioned, 0u);
  EXPECT_GT(f.bus().stats().drops_request + f.bus().stats().drops_reply, 0u);
  EXPECT_GT(f.machine(0).file_agent->rpc_retries(), 0u);
}

TEST(ChaosTest, SurvivesReplicaPartitionStorm) {
  // A replica disk is partitioned (not crashed: its volatile state lives
  // on) across a long window of quorum writes, then heals; later a second
  // disk flaps crash/recover four times. Quorum writes must keep acking at
  // W=2, the partitioned replica's misses must ride the hint queue home,
  // and the matrix invariants must hold over the wreckage.
  DistributedFileFacility f(SmallConfig());
  ChaosWorkloadConfig wl;
  wl.seed = 44;
  wl.operations = 300;
  ChaosRunner runner(&f, wl);
  sim::FaultPlan plan;
  plan.DiskPartition(150 * kSimMillisecond, 1)
      .DiskHeal(900 * kSimMillisecond, 1)
      .DiskFlap(1200 * kSimMillisecond, 2, /*period=*/120 * kSimMillisecond,
                /*cycles=*/4);
  auto report = runner.Run(std::move(plan));
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report->ok()) << report->Summary();
  // The flap registered as repeated crash/recover edges...
  EXPECT_GE(report->disk_failures_seen, 4u);
  EXPECT_GE(report->disk_recoveries_seen, 4u);
  // ...and the partition forced the quorum machinery to actually work:
  // writes committed at W with hints queued for the unreachable replica,
  // which anti-entropy later drained.
  const auto& rep = f.replication().stats();
  EXPECT_GT(rep.hints_queued, 0u) << report->Summary();
  EXPECT_GT(rep.hints_replayed + rep.repairs, 0u) << report->Summary();
  EXPECT_EQ(f.replication().TotalPendingHints(), 0u);
}

TEST(ChaosTest, SurvivesCrashDuringRepairStorm) {
  // The nastiest recovery boundary: a replica disk dies, writes continue
  // past it, and when the scanner starts copying the group back onto the
  // returned disk the SAME disk dies again mid-copy (one-shot probe).
  // The half-written rebuild target must never serve, and once the world
  // finally heals the group must converge clean. Hint queues are kept to a
  // single entry so the down window overflows them and the return is a
  // full copy — the path the probe can interrupt.
  FacilityConfig cfg = SmallConfig();
  cfg.replication.max_hints_per_replica = 1;
  DistributedFileFacility f(cfg);
  ChaosWorkloadConfig wl;
  wl.seed = 55;
  wl.operations = 300;
  ChaosRunner runner(&f, wl);
  bool fired = false;
  f.replication().SetRepairProbe(
      [&](replication::GroupId, std::size_t, std::uint64_t chunk) {
        if (!fired && chunk == 0) {
          fired = true;
          (void)f.CrashDisk(DiskId{1});
        }
      });
  sim::FaultPlan plan;
  plan.DiskCrash(200 * kSimMillisecond, 1)
      .DiskRecover(700 * kSimMillisecond, 1);
  auto report = runner.Run(std::move(plan));
  f.replication().SetRepairProbe(nullptr);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_TRUE(fired);  // the repair really was interrupted mid-copy
  EXPECT_GE(report->disk_failures_seen, 1u);
}

TEST(ChaosTest, SurvivesSnapshotStormWithMidRunServiceCrash) {
  // E23 storm: snapshots and clones are captured, the clones rewritten and
  // every image re-read, while a replica disk dies and returns — and at
  // the half-way mark every service and every disk crashes and recovers
  // mid-storm (snapshot-journal redo first, then the intention log).
  // Write-through makes every acked write a durable promise, so the
  // oracles hold across the crash; snapshots must present their capture
  // image forever (invariant I5), and the final audit reconciles every
  // shared block's refcount.
  FacilityConfig cfg = SmallConfig();
  cfg.file.basic_write_policy = file::WritePolicy::kWriteThrough;
  DistributedFileFacility f(cfg);
  ChaosWorkloadConfig wl;
  wl.seed = 66;
  wl.operations = 300;
  wl.max_images = 8;
  wl.service_crash_at_op = 150;
  ChaosRunner runner(&f, wl);
  sim::FaultPlan plan;
  plan.DiskCrash(200 * kSimMillisecond, 1)
      .DiskRecover(500 * kSimMillisecond, 1);
  auto report = runner.Run(std::move(plan));
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report->ok()) << report->Summary();
  // The storm exercised the machinery it claims to cover.
  EXPECT_GT(report->snapshots_taken, 0u) << report->Summary();
  EXPECT_GT(report->clones_taken, 0u) << report->Summary();
  EXPECT_GT(report->clone_writes, 0u) << report->Summary();
  EXPECT_GT(report->image_reads, 0u) << report->Summary();
  EXPECT_GT(report->fsck_refcounts_checked, 0u) << report->Summary();
  EXPECT_GE(report->disk_failures_seen, 1u);
}

TEST(ChaosTest, SnapshotStormDeterministicGivenSeedAndPlan) {
  auto run = [] {
    FacilityConfig cfg = SmallConfig();
    cfg.file.basic_write_policy = file::WritePolicy::kWriteThrough;
    DistributedFileFacility f(cfg);
    ChaosWorkloadConfig wl;
    wl.seed = 66;
    wl.operations = 300;
    wl.max_images = 8;
    wl.service_crash_at_op = 150;
    sim::FaultPlan plan;
    plan.DiskCrash(200 * kSimMillisecond, 1)
        .DiskRecover(500 * kSimMillisecond, 1);
    ChaosRunner runner(&f, wl);
    auto report = runner.Run(std::move(plan));
    EXPECT_TRUE(report.ok());
    return report.ok() ? report->Summary() : std::string("setup failed");
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first, "setup failed");
}

TEST(ChaosTest, PartitionStormDeterministicGivenSeedAndPlan) {
  auto run = [] {
    DistributedFileFacility f(SmallConfig());
    ChaosWorkloadConfig wl;
    wl.seed = 44;
    wl.operations = 300;
    sim::FaultPlan plan;
    plan.DiskPartition(150 * kSimMillisecond, 1)
        .DiskHeal(900 * kSimMillisecond, 1)
        .DiskFlap(1200 * kSimMillisecond, 2, 120 * kSimMillisecond, 4);
    ChaosRunner runner(&f, wl);
    auto report = runner.Run(std::move(plan));
    EXPECT_TRUE(report.ok());
    return report.ok() ? report->Summary() : std::string("setup failed");
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first, "setup failed");
}

TEST(ChaosTest, DeterministicGivenSeedAndPlan) {
  auto run = [] {
    DistributedFileFacility f(SmallConfig());
    ChaosWorkloadConfig wl;
    wl.seed = 11;
    wl.operations = 300;
    sim::FaultPlan plan;
    plan.DiskCrash(100 * kSimMillisecond, 1)
        .DiskRecover(300 * kSimMillisecond, 1)
        .DiskCrash(350 * kSimMillisecond, 2)
        .DiskRecover(450 * kSimMillisecond, 2);
    ChaosRunner runner(&f, wl);
    auto report = runner.Run(std::move(plan));
    EXPECT_TRUE(report.ok());
    return report.ok() ? report->Summary() : std::string("setup failed");
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first, "setup failed");
}

}  // namespace
}  // namespace rhodos::core
