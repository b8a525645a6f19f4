// The replica-fault matrix: every (N, W, R) quorum combination crossed
// with the replica-failure scenarios the quorum protocol must survive —
//
//   * replica down before the write,
//   * replica dying MID-write (torn copy on the crashing disk),
//   * partition that heals after the write (hinted handoff drains),
//   * crash during Repair (a rebuild target dies under the copier),
//   * a flapping disk (repeated crash/recover cycles with writes between).
//
// After every scenario the world is healed and the group must converge
// within a bounded number of anti-entropy ticks, every replica must hold
// the bytes of the last committed write, reads must never have served a
// stale version without the explicit `stale` flag, and fsck must be clean.
//
// Also here: the W=1 legacy-mode kDegraded regression and the retried-
// write idempotency-token (double-apply) regression.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/facility.h"
#include "file/fsck.h"

namespace rhodos::replication {
namespace {

constexpr std::size_t kRegion = 2048;
constexpr int kDrainTicks = 8;  // >= two full anti-entropy scans

core::FacilityConfig MatrixConfig(std::uint32_t disks) {
  core::FacilityConfig cfg;
  cfg.disk_count = disks;
  cfg.geometry.total_fragments = 4096;
  cfg.geometry.fragments_per_track = 32;
  // Tiny hint queues: single missed writes drain by hint replay, while a
  // second miss overflows the queue and exercises the full-copy path.
  cfg.replication.max_hints_per_replica = 1;
  return cfg;
}

std::vector<std::uint8_t> Pattern(std::uint8_t seed) {
  std::vector<std::uint8_t> v(kRegion);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 13);
  }
  return v;
}

// Drives one (N, W, R) group through a scenario and checks the oracle: the
// bytes of the last write that advanced the group version must be on every
// replica after the world heals and anti-entropy converges the group.
class QuorumHarness {
 public:
  QuorumHarness(std::uint32_t n, std::uint32_t w, std::uint32_t r)
      : f_(MatrixConfig(n)), n_(n), w_(w), r_(r) {
    auto group = f_.replication().CreateReplicated(
        file::ServiceType::kTransaction, n, kRegion, GroupPolicy{w, r});
    EXPECT_TRUE(group.ok());
    group_ = *group;
    // Baseline write with every replica healthy: must ack everywhere.
    const auto v1 = Pattern(1);
    auto ack = f_.replication().Write(group_, 0, v1, NextToken());
    EXPECT_TRUE(ack.ok());
    if (ack.ok()) {
      EXPECT_EQ(ack->outcome, WriteOutcome::kFull);
    }
    expected_ = v1;
  }

  core::DistributedFileFacility& facility() { return f_; }
  GroupId group() const { return group_; }
  std::uint64_t NextToken() { return ++token_; }

  DiskId ReplicaDisk(std::size_t index) {
    return (*f_.replication().Replicas(group_))[index].disk;
  }

  // A write that is EXPECTED to ack iff `live` replicas can meet W. Either
  // way the oracle tracks the bytes of the last version-advancing write —
  // a rolled-forward partial failure supersedes older data too.
  void WriteExpecting(std::uint8_t seed, std::uint32_t live) {
    const auto data = Pattern(seed);
    const std::uint64_t before = *f_.replication().CurrentVersion(group_);
    auto ack = f_.replication().Write(group_, 0, data, NextToken());
    const std::uint64_t after = *f_.replication().CurrentVersion(group_);
    if (after != before) expected_ = data;
    if (live >= w_) {
      ASSERT_TRUE(ack.ok()) << "W=" << w_ << " live=" << live << ": "
                            << ack.error().message;
      EXPECT_EQ(after, before + 1);
      EXPECT_GE(ack->acks, w_);
      EXPECT_EQ(ack->outcome, ack->acks == n_ ? WriteOutcome::kFull
                                              : WriteOutcome::kDegraded);
    } else {
      ASSERT_FALSE(ack.ok());
      EXPECT_EQ(ack.error().code, ErrorCode::kUnavailable);
    }
  }

  // A read while at least one current replica is live: must succeed, must
  // NOT be flagged stale, and must carry the committed bytes — a fenced
  // stale replica never serves as current.
  void ReadExpectCurrent() {
    std::vector<std::uint8_t> out(kRegion);
    auto ack = f_.replication().Read(group_, 0, out);
    ASSERT_TRUE(ack.ok()) << ack.error().message;
    EXPECT_FALSE(ack->stale);
    EXPECT_EQ(ack->version, *f_.replication().CurrentVersion(group_));
    EXPECT_EQ(out, expected_);
  }

  void HealAll() {
    for (const auto& disk : f_.disks().disks()) {
      if (disk->partitioned()) {
        ASSERT_TRUE(f_.HealDisk(disk->id()).ok());
      }
      if (disk->crashed()) {
        ASSERT_TRUE(f_.RecoverDisk(disk->id()).ok());
      }
    }
  }

  // Post-scenario acceptance: converge within kDrainTicks, no acknowledged
  // write lost (every replica holds the oracle bytes), hints drained, fsck
  // clean.
  void VerifyConverged() {
    bool converged = false;
    for (int i = 0; i < kDrainTicks && !converged; ++i) {
      f_.recovery().Tick();
      auto all = f_.replication().AllCurrent(group_);
      converged = all.ok() && *all;
    }
    EXPECT_TRUE(converged) << "group did not converge in " << kDrainTicks
                           << " anti-entropy ticks";
    EXPECT_EQ(f_.replication().TotalPendingHints(), 0u);

    auto replicas = f_.replication().Replicas(group_);
    ASSERT_TRUE(replicas.ok());
    std::vector<FileId> files;
    for (const auto& rep : *replicas) {
      files.push_back(rep.file);
      std::vector<std::uint8_t> copy(kRegion);
      auto got = f_.files().Read(rep.file, 0, copy);
      ASSERT_TRUE(got.ok()) << "replica on disk " << rep.disk.value;
      EXPECT_EQ(copy, expected_) << "replica on disk " << rep.disk.value;
    }
    const file::AuditReport fsck = file::AuditFiles(f_.files(), files);
    EXPECT_TRUE(fsck.clean()) << fsck.issues.size() << " fsck issues";
    ReadExpectCurrent();
  }

  std::uint32_t n() const { return n_; }
  std::uint32_t w() const { return w_; }

 private:
  core::DistributedFileFacility f_;
  std::uint32_t n_, w_, r_;
  GroupId group_{};
  std::uint64_t token_ = 0;
  std::vector<std::uint8_t> expected_;
};

// Every (N, W, R) with N in {2, 3, 5}: 4 + 9 + 25 = 38 combinations.
template <typename Scenario>
void ForEachCombo(Scenario&& scenario) {
  for (std::uint32_t n : {2u, 3u, 5u}) {
    for (std::uint32_t w = 1; w <= n; ++w) {
      for (std::uint32_t r = 1; r <= n; ++r) {
        SCOPED_TRACE("N=" + std::to_string(n) + " W=" + std::to_string(w) +
                     " R=" + std::to_string(r));
        QuorumHarness h(n, w, r);
        if (::testing::Test::HasFatalFailure()) return;
        scenario(h);
      }
    }
  }
}

TEST(ReplicaFaultMatrixTest, ReplicaDownBeforeWrite) {
  ForEachCombo([](QuorumHarness& h) {
    auto& f = h.facility();
    const DiskId victim = h.ReplicaDisk(0);
    ASSERT_TRUE(f.CrashDisk(victim).ok());
    f.recovery().Tick();  // suspicion lands before the write
    h.WriteExpecting(2, h.n() - 1);
    h.ReadExpectCurrent();
    h.HealAll();
    h.VerifyConverged();
  });
}

TEST(ReplicaFaultMatrixTest, ReplicaDiesMidWrite) {
  ForEachCombo([](QuorumHarness& h) {
    auto& f = h.facility();
    const DiskId victim = h.ReplicaDisk(h.n() - 1);
    auto server = f.disks().Get(victim);
    ASSERT_TRUE(server.ok());
    // The victim's next write reference crashes the disk and tears the
    // copy: only a prefix of the fragments reaches the platter.
    (*server)->SetFaultPlan(sim::DiskFaultPlan{.crash_after_writes = 0});
    h.WriteExpecting(2, h.n() - 1);
    h.ReadExpectCurrent();  // the torn replica must never serve
    h.HealAll();
    h.VerifyConverged();
  });
}

TEST(ReplicaFaultMatrixTest, PartitionHealsAfterWrite) {
  ForEachCombo([](QuorumHarness& h) {
    auto& f = h.facility();
    const DiskId victim = h.ReplicaDisk(0);
    ASSERT_TRUE(f.PartitionDisk(victim).ok());
    f.recovery().Tick();
    const std::uint64_t hints_before = f.replication().stats().hints_queued;
    h.WriteExpecting(2, h.n() - 1);
    if (h.n() - 1 >= h.w()) {
      // The missed write is queued as a hint for the partitioned replica.
      EXPECT_GT(f.replication().stats().hints_queued, hints_before);
      h.ReadExpectCurrent();
    }
    ASSERT_TRUE(f.HealDisk(victim).ok());
    // Healed but not yet repaired: the stale replica is fenced by its old
    // epoch/version, so a read still serves the committed bytes.
    h.ReadExpectCurrent();
    h.VerifyConverged();
  });
}

TEST(ReplicaFaultMatrixTest, CrashDuringRepair) {
  ForEachCombo([](QuorumHarness& h) {
    auto& f = h.facility();
    const DiskId victim = h.ReplicaDisk(0);
    ASSERT_TRUE(f.CrashDisk(victim).ok());
    f.recovery().Tick();
    // Two writes: the second overflows the 1-entry hint queue, so the
    // replica can only return by full copy — which the probe then kills.
    h.WriteExpecting(2, h.n() - 1);
    h.WriteExpecting(3, h.n() - 1);
    ASSERT_TRUE(f.RecoverDisk(victim).ok());

    bool fired = false;
    f.replication().SetRepairProbe(
        [&](GroupId, std::size_t, std::uint64_t chunk) {
          if (!fired && chunk == 0) {
            fired = true;
            (void)f.CrashDisk(victim);
          }
        });
    for (int i = 0; i < kDrainTicks && !fired; ++i) f.recovery().Tick();
    if (h.n() - 1 >= h.w()) {
      // The rebuild was attempted and its target died under the copier;
      // the group keeps serving the committed bytes regardless.
      EXPECT_TRUE(fired);
    }
    h.ReadExpectCurrent();

    f.replication().SetRepairProbe(nullptr);
    h.HealAll();
    h.VerifyConverged();
  });
}

TEST(ReplicaFaultMatrixTest, FlappingReplicaDisk) {
  ForEachCombo([](QuorumHarness& h) {
    auto& f = h.facility();
    const DiskId victim = h.ReplicaDisk(h.n() / 2);
    for (int cycle = 0; cycle < 4; ++cycle) {
      ASSERT_TRUE(f.CrashDisk(victim).ok());
      f.recovery().Tick();
      h.WriteExpecting(static_cast<std::uint8_t>(10 + cycle), h.n() - 1);
      ASSERT_TRUE(f.RecoverDisk(victim).ok());
      f.recovery().Tick();
    }
    h.ReadExpectCurrent();
    h.VerifyConverged();
  });
}

// --- W=1 legacy mode ---------------------------------------------------------

TEST(ReplicationQuorumTest, LegacyWriteOneModeReturnsDegradedOutcome) {
  // W=1 keeps the old write-one availability, but the caller can now TELL
  // that replicas were missed: the ack says kDegraded, not silent success,
  // and the degraded_writes counter (golden schema) bumps.
  core::DistributedFileFacility f(MatrixConfig(3));
  auto group = f.replication().CreateReplicated(
      file::ServiceType::kTransaction, 3, kRegion, GroupPolicy{1, 1});
  ASSERT_TRUE(group.ok());
  ASSERT_TRUE(f.replication().Write(*group, 0, Pattern(1), 1).ok());

  auto replicas = *f.replication().Replicas(*group);
  ASSERT_TRUE(f.CrashDisk(replicas[1].disk).ok());
  ASSERT_TRUE(f.CrashDisk(replicas[2].disk).ok());
  f.recovery().Tick();

  const std::uint64_t degraded_before = f.replication().stats().degraded_writes;
  auto ack = f.replication().Write(*group, 0, Pattern(2), 2);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->outcome, WriteOutcome::kDegraded);
  EXPECT_EQ(ack->acks, 1u);
  EXPECT_EQ(f.replication().stats().degraded_writes, degraded_before + 1);

  // The counter reaches the operator through the facility snapshot.
  bool found = false;
  for (const auto& [name, value] : f.StatsSnapshot().counters) {
    if (name == "replication.degraded_writes") {
      found = true;
      EXPECT_GE(value, degraded_before + 1);
    }
  }
  EXPECT_TRUE(found);
}

// --- idempotency tokens ------------------------------------------------------

TEST(ReplicationQuorumTest, RetriedWriteTokenIsNotAppliedTwice) {
  // The at-least-once failure mode: a write commits, the reply is lost,
  // the client retries the SAME exchange. Before tokens the retry applied
  // the bytes again as a second version; now it replays the recorded ack.
  core::DistributedFileFacility f(MatrixConfig(3));
  auto group = f.replication().CreateReplicated(
      file::ServiceType::kTransaction, 3, kRegion);
  ASSERT_TRUE(group.ok());

  const auto data = Pattern(7);
  auto first = f.replication().Write(*group, 0, data, /*token=*/77);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->replayed);
  EXPECT_EQ(first->version, 1u);

  const std::uint64_t file_writes = f.files().stats().writes;
  auto retry = f.replication().Write(*group, 0, data, /*token=*/77);
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->replayed);
  EXPECT_EQ(retry->version, 1u);
  EXPECT_EQ(retry->acks, first->acks);
  EXPECT_EQ(*f.replication().CurrentVersion(*group), 1u);
  // Nothing descended to the file layer: the bytes were not re-applied.
  EXPECT_EQ(f.files().stats().writes, file_writes);
  EXPECT_EQ(f.replication().stats().token_replays, 1u);

  // A fresh token is a new write.
  auto next = f.replication().Write(*group, 0, Pattern(8), /*token=*/78);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->version, 2u);
}

TEST(ReplicationQuorumTest, TokenWindowAgesOutOldTokens) {
  core::DistributedFileFacility f(MatrixConfig(3));
  auto group = f.replication().CreateReplicated(
      file::ServiceType::kTransaction, 3, kRegion);
  ASSERT_TRUE(group.ok());
  // Push token 1 out of the 128-entry window; its retry then re-executes
  // as a fresh write (the documented bound of the replay guarantee).
  for (std::uint64_t t = 1; t <= 130; ++t) {
    ASSERT_TRUE(f.replication().Write(*group, 0, Pattern(1), t).ok());
  }
  auto late = f.replication().Write(*group, 0, Pattern(1), 1);
  ASSERT_TRUE(late.ok());
  EXPECT_FALSE(late->replayed);
  EXPECT_EQ(late->version, 131u);
}

// --- epoch fencing -----------------------------------------------------------

TEST(ReplicationQuorumTest, EpochFencesPartitionedReplicaAfterReadmission) {
  // A replica that sat out a suspicion epoch cannot serve as current even
  // if its version number happens to match: the epoch is the fence.
  core::DistributedFileFacility f(MatrixConfig(3));
  auto group = f.replication().CreateReplicated(
      file::ServiceType::kTransaction, 3, kRegion, GroupPolicy{2, 2});
  ASSERT_TRUE(group.ok());
  ASSERT_TRUE(f.replication().Write(*group, 0, Pattern(1), 1).ok());
  const std::uint64_t epoch1 = *f.replication().CurrentEpoch(*group);

  auto replicas = *f.replication().Replicas(*group);
  ASSERT_TRUE(f.PartitionDisk(replicas[0].disk).ok());
  f.recovery().Tick();  // suspicion bumps the epoch
  EXPECT_GT(*f.replication().CurrentEpoch(*group), epoch1);
  EXPECT_GT(f.replication().stats().epoch_bumps, 0u);

  // Version-current but epoch-stale: fenced out of current-version serving
  // until anti-entropy readmits it (another epoch bump).
  replicas = *f.replication().Replicas(*group);
  EXPECT_EQ(replicas[0].version, *f.replication().CurrentVersion(*group));
  EXPECT_LT(replicas[0].epoch, *f.replication().CurrentEpoch(*group));

  ASSERT_TRUE(f.HealDisk(replicas[0].disk).ok());
  bool converged = false;
  for (int i = 0; i < kDrainTicks && !converged; ++i) {
    f.recovery().Tick();
    auto all = f.replication().AllCurrent(*group);
    converged = all.ok() && *all;
  }
  EXPECT_TRUE(converged);
  replicas = *f.replication().Replicas(*group);
  EXPECT_EQ(replicas[0].epoch, *f.replication().CurrentEpoch(*group));
}

// --- degraded-mode reads -----------------------------------------------------

TEST(ReplicationQuorumTest, ReadFallsBackToStaleWhenNoCurrentReplicaLives) {
  core::DistributedFileFacility f(MatrixConfig(3));
  auto group = f.replication().CreateReplicated(
      file::ServiceType::kTransaction, 3, kRegion, GroupPolicy{2, 2});
  ASSERT_TRUE(group.ok());
  const auto v1 = Pattern(1);
  ASSERT_TRUE(f.replication().Write(*group, 0, v1, 1).ok());

  // Partition one replica, commit v2 on the others, then lose BOTH v2
  // holders: only the stale partitioned copy remains reachable.
  auto replicas = *f.replication().Replicas(*group);
  ASSERT_TRUE(f.PartitionDisk(replicas[0].disk).ok());
  f.recovery().Tick();
  ASSERT_TRUE(f.replication().Write(*group, 0, Pattern(2), 2).ok());
  ASSERT_TRUE(f.CrashDisk(replicas[1].disk).ok());
  ASSERT_TRUE(f.CrashDisk(replicas[2].disk).ok());
  ASSERT_TRUE(f.HealDisk(replicas[0].disk).ok());

  std::vector<std::uint8_t> out(kRegion);
  auto ack = f.replication().Read(*group, 0, out);
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(ack->stale);  // explicitly flagged, never stale-as-current
  EXPECT_LT(ack->version, *f.replication().CurrentVersion(*group));
  EXPECT_EQ(out, v1);
  EXPECT_GE(f.replication().stats().stale_reads, 1u);
}

TEST(ReplicationQuorumTest, WriteFailsFastBelowQuorumWithNoSideEffects) {
  core::DistributedFileFacility f(MatrixConfig(3));
  auto group = f.replication().CreateReplicated(
      file::ServiceType::kTransaction, 3, kRegion, GroupPolicy{3, 1});
  ASSERT_TRUE(group.ok());
  ASSERT_TRUE(f.replication().Write(*group, 0, Pattern(1), 1).ok());

  auto replicas = *f.replication().Replicas(*group);
  ASSERT_TRUE(f.CrashDisk(replicas[0].disk).ok());
  f.recovery().Tick();

  const std::uint64_t version = *f.replication().CurrentVersion(*group);
  const std::uint64_t file_writes = f.files().stats().writes;
  auto ack = f.replication().Write(*group, 0, Pattern(2), 2);
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.error().code, ErrorCode::kUnavailable);
  // Fail-fast means fail-clean: no version advance, no bytes written.
  EXPECT_EQ(*f.replication().CurrentVersion(*group), version);
  EXPECT_EQ(f.files().stats().writes, file_writes);
  EXPECT_GE(f.replication().stats().unavailable_writes, 1u);
}

}  // namespace
}  // namespace rhodos::replication
