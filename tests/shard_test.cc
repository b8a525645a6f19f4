// The sharded metadata plane end to end: agents routing per-FileId across
// N file-service shards, cross-shard delete through the two-step protocol,
// a shard outage served by its ring successor and readmitted with epoch
// fencing, a fence that flushes delayed writes before it purges (one shard
// is just N=1), and a full chaos storm that kills metadata shards
// mid-workload.
//
// Everything rides on the shared-substrate invariant (docs/SHARDING.md):
// every shard sits on the same disk registry, so failover is a route
// change — the successor shard loads the file's index table from disk and
// serves. These tests are the proof that the convention holds under load.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/chaos_runner.h"
#include "core/facility.h"
#include "file/fsck.h"

namespace rhodos::core {
namespace {

FacilityConfig ShardedConfig(std::uint32_t file_shards,
                             std::uint32_t naming_shards) {
  FacilityConfig cfg;
  cfg.disk_count = 3;
  cfg.geometry.total_fragments = 16 * 1024;
  cfg.geometry.fragments_per_track = 32;
  cfg.sharding.file_shards = file_shards;
  cfg.sharding.naming_shards = naming_shards;
  return cfg;
}

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 13);
  }
  return v;
}

TEST(ShardTest, RequestsSpreadAcrossShardsAndStayCoherent) {
  DistributedFileFacility f(ShardedConfig(4, 2));
  auto& m0 = f.AddMachine();
  auto& m1 = f.AddMachine();

  // Create a fleet of files from machine 0; the placement map should land
  // their metadata traffic on more than one shard server.
  constexpr int kFiles = 24;
  for (int i = 0; i < kFiles; ++i) {
    auto od = m0.file_agent->Create(
        naming::ByName("spread-" + std::to_string(i)),
        file::ServiceType::kBasic);
    ASSERT_TRUE(od.ok()) << od.error().message;
    ASSERT_TRUE(
        m0.file_agent->Pwrite(*od, 0, Pattern(600, static_cast<std::uint8_t>(i)))
            .ok());
    ASSERT_TRUE(m0.file_agent->Flush(*od).ok());
    ASSERT_TRUE(m0.file_agent->Close(*od).ok());
  }

  std::uint32_t shards_hit = 0;
  std::uint64_t total_requests = 0;
  for (std::uint32_t s = 0; s < f.file_shard_count(); ++s) {
    const auto& st = f.file_server(s).stats();
    if (st.requests > 0) ++shards_hit;
    total_requests += st.requests;
  }
  EXPECT_GE(shards_hit, 3u) << "placement left shards idle";
  EXPECT_GT(total_requests, static_cast<std::uint64_t>(kFiles));
  EXPECT_GT(f.placement().stats().lookups, 0u);
  EXPECT_EQ(f.placement().stats().reroutes, 0u);  // nothing was suspected

  // Machine 1 resolves every name through the sharded index and reads the
  // bytes back through whichever shard owns the file.
  for (int i = 0; i < kFiles; ++i) {
    auto od = m1.file_agent->Open(
        naming::ByName("spread-" + std::to_string(i)));
    ASSERT_TRUE(od.ok()) << od.error().message;
    std::vector<std::uint8_t> out(600);
    ASSERT_TRUE(m1.file_agent->Pread(*od, 0, out).ok());
    EXPECT_EQ(out, Pattern(600, static_cast<std::uint8_t>(i))) << i;
    ASSERT_TRUE(m1.file_agent->Close(*od).ok());
  }
}

TEST(ShardTest, CrossShardDeleteRemovesBothSides) {
  DistributedFileFacility f(ShardedConfig(4, 4));
  auto& m = f.AddMachine();

  const auto name = naming::ByName("doomed");
  auto od = m.file_agent->Create(name, file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  const FileId id = *m.file_agent->FileOf(*od);
  ASSERT_TRUE(m.file_agent->Close(*od).ok());

  // Step 1 kills the file on its file shard, step 2 fans the unregister out
  // to the naming shards. Afterwards neither side knows the file.
  ASSERT_TRUE(m.file_agent->Delete(name).ok());
  auto reopen = m.file_agent->Open(name);
  ASSERT_FALSE(reopen.ok());
  EXPECT_EQ(reopen.code(), ErrorCode::kNameNotResolved);
  EXPECT_NE(reopen.error().message.find("(naming shard "), std::string::npos)
      << reopen.error().message;
  EXPECT_FALSE(m.file_agent->OpenById(id).ok());
  EXPECT_EQ(f.naming().FileCount(), 0u);

  // Retry safety: deleting again fails at name resolution (idempotent from
  // the client's view — nothing is half-deleted to clean up).
  EXPECT_EQ(m.file_agent->Delete(name).code(), ErrorCode::kNameNotResolved);
}

TEST(ShardTest, DeleteErrorNamesTheFileShard) {
  DistributedFileFacility f(ShardedConfig(4, 2));
  auto& m = f.AddMachine();
  // A naming entry pointing at a file that does not exist: step 1 of the
  // delete fails on the file shard, and the error must say which one.
  const FileId bogus{7777};
  ASSERT_TRUE(f.naming().RegisterFile(naming::ByName("dangling"), bogus).ok());
  const Status st = m.file_agent->Delete(naming::ByName("dangling"));
  ASSERT_FALSE(st.ok());
  const std::string expected =
      "(file shard " +
      std::to_string(f.placement().map().ShardForFile(bogus)) + ")";
  EXPECT_NE(st.error().message.find(expected), std::string::npos)
      << st.error().message;
}

TEST(ShardTest, ShardOutageIsServedByRingSuccessorAndReadmitted) {
  DistributedFileFacility f(ShardedConfig(4, 2));
  auto& m0 = f.AddMachine();

  auto od = m0.file_agent->Create(naming::ByName("victim"),
                                  file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  const FileId id = *m0.file_agent->FileOf(*od);
  ASSERT_TRUE(m0.file_agent->Pwrite(*od, 0, Pattern(900, 1)).ok());
  ASSERT_TRUE(m0.file_agent->Flush(*od).ok());

  // Kill the file's home shard and let the control loop notice.
  const std::uint32_t home = f.placement().map().ShardForFile(id);
  f.bus().SetServiceDown(f.placement().AddressOf(home));
  f.recovery().Tick();
  ASSERT_TRUE(f.placement().Suspected(home));
  EXPECT_GE(f.recovery().stats().shard_failovers, 1u);
  const std::uint64_t epoch_after_failover = f.placement().epoch();

  // Writes keep landing: the router sends them to the ring successor, which
  // loads the index table from the shared disks and serves write-through.
  ASSERT_TRUE(m0.file_agent->Pwrite(*od, 0, Pattern(900, 2)).ok());
  ASSERT_TRUE(m0.file_agent->Flush(*od).ok());
  EXPECT_GT(f.placement().stats().reroutes, 0u);

  // A second machine (cold cache) reads the failover shard's truth.
  auto& m1 = f.AddMachine();
  auto od1 = m1.file_agent->Open(naming::ByName("victim"));
  ASSERT_TRUE(od1.ok()) << od1.error().message;
  std::vector<std::uint8_t> out(900);
  ASSERT_TRUE(m1.file_agent->Pread(*od1, 0, out).ok());
  EXPECT_EQ(out, Pattern(900, 2));

  // Heal: the next tick readmits the shard, bumps the epoch and fences
  // every shard's volatile state, so the home shard cannot serve a stale
  // image of what the successor wrote while it was gone.
  f.bus().SetServiceUp(f.placement().AddressOf(home));
  f.recovery().Tick();
  EXPECT_FALSE(f.placement().Suspected(home));
  EXPECT_GE(f.recovery().stats().shard_readmissions, 1u);
  EXPECT_GT(f.placement().epoch(), epoch_after_failover);

  ASSERT_TRUE(m0.file_agent->Pwrite(*od, 0, Pattern(900, 3)).ok());
  ASSERT_TRUE(m0.file_agent->Flush(*od).ok());
  // Coherence is open-time (AFS-style): machine 1 re-opens, the open reply
  // carries the home shard's new version token, and the stale clean blocks
  // it cached from the failover shard are dropped before they can serve.
  ASSERT_TRUE(m1.file_agent->Close(*od1).ok());
  od1 = m1.file_agent->Open(naming::ByName("victim"));
  ASSERT_TRUE(od1.ok());
  std::vector<std::uint8_t> final_out(900);
  ASSERT_TRUE(m1.file_agent->Pread(*od1, 0, final_out).ok());
  EXPECT_EQ(final_out, Pattern(900, 3));
  ASSERT_TRUE(m0.file_agent->Close(*od).ok());
  ASSERT_TRUE(m1.file_agent->Close(*od1).ok());
}

TEST(ShardTest, MetricsCountTheFailoverStory) {
  DistributedFileFacility f(ShardedConfig(4, 2));
  auto& m = f.AddMachine();
  auto od = m.file_agent->Create(naming::ByName("counted"),
                                 file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  const FileId id = *m.file_agent->FileOf(*od);
  const std::uint32_t home = f.placement().map().ShardForFile(id);

  f.bus().SetServiceDown(f.placement().AddressOf(home));
  f.recovery().Tick();
  ASSERT_TRUE(m.file_agent->Pwrite(*od, 0, Pattern(128, 9)).ok());
  ASSERT_TRUE(m.file_agent->Flush(*od).ok());
  f.bus().SetServiceUp(f.placement().AddressOf(home));
  f.recovery().Tick();

  const auto snap = f.StatsSnapshot();
  const auto counter = [&snap](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "counter not in snapshot: " << name;
    return 0;
  };
  const auto gauge = [&snap](const std::string& name) -> double {
    for (const auto& [n, v] : snap.gauges) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "gauge not in snapshot: " << name;
    return 0;
  };
  EXPECT_GE(counter("placement.shard_suspicions"), 1u);
  EXPECT_GE(counter("placement.shard_readmissions"), 1u);
  EXPECT_GE(counter("placement.reroutes"), 1u);
  EXPECT_GT(counter("placement.lookups"), 0u);
  EXPECT_GE(counter("file.shard_failovers"), 1u);
  EXPECT_GE(counter("file.shard_readmissions"), 1u);
  EXPECT_EQ(gauge("placement.file_shards"), 4.0);
  EXPECT_EQ(gauge("placement.naming_shards"), 2.0);
  EXPECT_EQ(gauge("placement.epoch"), 2.0);  // suspect + readmit
}

// Takes shard `s` out and back in through the control loop: two epoch
// bumps, each fencing every shard.
void OutageAndHeal(DistributedFileFacility& f, std::uint32_t s) {
  f.bus().SetServiceDown(f.placement().AddressOf(s));
  f.recovery().Tick();
  f.bus().SetServiceUp(f.placement().AddressOf(s));
  f.recovery().Tick();
}

std::uint64_t MainDiskWrites(DistributedFileFacility& f) {
  std::uint64_t n = 0;
  for (const auto& d : f.disks().disks()) {
    n += d->main_stats().write_references;
  }
  return n;
}

TEST(ShardFenceTest, ClosedFileSoftAttributesSurviveAFence) {
  DistributedFileFacility f(ShardedConfig(4, 1));
  file::FileService& svc = f.files();
  auto id = svc.Create(file::ServiceType::kBasic, 4 * kBlockSize);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(svc.Open(*id).ok());
  ASSERT_TRUE(svc.Write(*id, 0, Pattern(3000, 5)).ok());
  ASSERT_TRUE(svc.Close(*id).ok());  // stores the grown table
  ASSERT_TRUE(svc.Open(*id).ok());
  std::vector<std::uint8_t> out(1000);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(svc.Read(*id, 0, out).ok());
  ASSERT_TRUE(svc.Close(*id).ok());  // parks the soft attributes
  const auto before = svc.GetAttributes(*id);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->access_count, 4u);
  ASSERT_GT(before->last_read_time, 0u);

  OutageAndHeal(f, 1);
  ASSERT_EQ(f.placement().epoch(), 2u);

  const auto after = svc.GetAttributes(*id);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->access_count, before->access_count);
  EXPECT_EQ(after->last_read_time, before->last_read_time);
}

TEST(ShardFenceTest, BasicWritesAreDelayedUntilCloseAtEveryShardCount) {
  for (const std::uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    DistributedFileFacility f(ShardedConfig(shards, 1));
    for (std::uint32_t s = 0; s < shards; ++s) {
      file::FileService& svc = f.files(s);
      auto id = svc.Create(file::ServiceType::kBasic, 2 * kBlockSize);
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(svc.Open(*id).ok());
      const std::uint64_t writes = MainDiskWrites(f);
      ASSERT_TRUE(svc.Write(*id, 0, Pattern(kBlockSize + 100, 7)).ok());
      EXPECT_EQ(MainDiskWrites(f), writes) << "shard " << s;
      ASSERT_TRUE(svc.Close(*id).ok());
      EXPECT_GT(MainDiskWrites(f), writes) << "shard " << s;
    }
  }
}

TEST(ShardFenceTest, OneShardFailsOverAndHealsLikeAnyShard) {
  DistributedFileFacility f(ShardedConfig(1, 1));
  auto& writer = f.AddMachine();
  auto od = writer.file_agent->Create(naming::ByName("solo"),
                                      file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  ASSERT_TRUE(writer.file_agent->Pwrite(*od, 0, Pattern(5000, 3)).ok());
  // The bytes now sit in the service's block cache as delayed writes; the
  // fences below must flush them before purging.
  ASSERT_TRUE(writer.file_agent->Flush(*od).ok());

  OutageAndHeal(f, 0);
  ASSERT_TRUE(writer.file_agent->Close(*od).ok());

  const auto snap = f.StatsSnapshot();
  const auto value = [&snap](const std::string& name) -> double {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return static_cast<double>(v);
    }
    for (const auto& [n, v] : snap.gauges) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "metric not in snapshot: " << name;
    return -1;
  };
  EXPECT_EQ(value("file.shard_failovers"), 1.0);
  EXPECT_EQ(value("file.shard_readmissions"), 1.0);
  EXPECT_EQ(value("placement.epoch"), 2.0);

  auto& reader = f.AddMachine();
  auto rod = reader.file_agent->Open(naming::ByName("solo"));
  ASSERT_TRUE(rod.ok()) << rod.error().message;
  std::vector<std::uint8_t> out(5000);
  ASSERT_TRUE(reader.file_agent->Pread(*rod, 0, out).ok());
  EXPECT_EQ(out, Pattern(5000, 3));
  ASSERT_TRUE(reader.file_agent->Close(*rod).ok());
}

TEST(ShardFenceTest, FenceFlushSurvivesAFailedDiskPerFile) {
  FacilityConfig cfg = ShardedConfig(1, 1);
  cfg.disk_count = 2;
  DistributedFileFacility f(cfg);
  file::FileService& svc = f.files();
  // One file per disk; the size hint keeps each file's data on its table's
  // disk.
  FileId on_disk[2];
  bool found[2] = {false, false};
  for (int i = 0; i < 8 && !(found[0] && found[1]); ++i) {
    auto id = svc.Create(file::ServiceType::kBasic, 2 * kBlockSize);
    ASSERT_TRUE(id.ok());
    const std::uint32_t d = file::FileDisk(*id).value;
    if (!found[d]) {
      on_disk[d] = *id;
      found[d] = true;
    }
  }
  ASSERT_TRUE(found[0] && found[1]);
  for (std::uint32_t d = 0; d < 2; ++d) {
    ASSERT_TRUE(svc.Open(on_disk[d]).ok());
    ASSERT_TRUE(svc.Write(on_disk[d], 0,
                          Pattern(kBlockSize + 500,
                                  static_cast<std::uint8_t>(d + 1)))
                    .ok());
  }

  // Disk 1 dies with a delayed write pending; the fence's flush cannot
  // land that file, but must still land the disk-0 file and its table.
  ASSERT_TRUE(f.CrashDisk(DiskId{1}).ok());
  OutageAndHeal(f, 0);

  std::vector<std::uint8_t> out(kBlockSize + 500);
  auto n = svc.Read(on_disk[0], 0, out);
  ASSERT_TRUE(n.ok()) << n.error().message;
  EXPECT_EQ(*n, out.size());
  EXPECT_EQ(out, Pattern(kBlockSize + 500, 1));

  ASSERT_TRUE(f.RecoverDisk(DiskId{1}).ok());
  const std::vector<FileId> ids = {on_disk[0], on_disk[1]};
  const auto report = file::AuditFiles(svc, ids);
  EXPECT_TRUE(report.clean()) << report.issues.size() << " issues, first: "
                              << (report.issues.empty()
                                      ? std::string()
                                      : report.issues.front().detail);
}

TEST(ShardTest, ChaosStormWithShardKillsConvergesClean) {
  // The acceptance storm: a mixed workload runs while two metadata shards
  // die and return at staggered times (and a disk flaps for good measure).
  // The invariant sweep at the end must be spotless.
  FacilityConfig cfg = ShardedConfig(3, 2);
  DistributedFileFacility f(cfg);
  ChaosWorkloadConfig wl;
  wl.seed = 77;
  wl.operations = 300;
  wl.agent_files = 6;  // enough files that shards 1 and 2 own some
  ChaosRunner runner(&f, wl);
  sim::FaultPlan plan;
  // Workload setup and disk service time dominate the simulated clock
  // (~12ms/op), so the windows are sized against the ~4s storm, wide
  // enough that many control-loop ticks land inside each outage.
  plan.ServiceDown(400 * kSimMillisecond, "file-service-1")
      .ServiceUp(1200 * kSimMillisecond, "file-service-1")
      .ServiceDown(1600 * kSimMillisecond, "file-service-2")
      .ServiceUp(2400 * kSimMillisecond, "file-service-2")
      .DiskCrash(2800 * kSimMillisecond, 2)
      .DiskRecover(3200 * kSimMillisecond, 2);
  auto report = runner.Run(std::move(plan));
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report->ok()) << report->Summary();
  // The kills actually engaged the failover machinery.
  EXPECT_GE(f.recovery().stats().shard_failovers, 2u) << report->Summary();
  EXPECT_GE(f.recovery().stats().shard_readmissions, 2u) << report->Summary();
  EXPECT_GT(f.placement().stats().reroutes, 0u) << report->Summary();
}

TEST(ShardTest, ShardKillStormDeterministicGivenSeedAndPlan) {
  auto run = [] {
    DistributedFileFacility f(ShardedConfig(3, 2));
    ChaosWorkloadConfig wl;
    wl.seed = 77;
    wl.operations = 300;
    wl.agent_files = 6;
    sim::FaultPlan plan;
    plan.ServiceDown(400 * kSimMillisecond, "file-service-1")
        .ServiceUp(1200 * kSimMillisecond, "file-service-1")
        .ServiceDown(1600 * kSimMillisecond, "file-service-2")
        .ServiceUp(2400 * kSimMillisecond, "file-service-2")
        .DiskCrash(2800 * kSimMillisecond, 2)
        .DiskRecover(3200 * kSimMillisecond, 2);
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

// Transactions and replication at 4 shards: the one transaction service and
// the one replication service follow each file to whichever shard serves it
// while shards die, fail over and return.
sim::FaultPlan FourShardKills() {
  sim::FaultPlan plan;
  plan.ServiceDown(300 * kSimMillisecond, "file-service-2")
      .ServiceUp(900 * kSimMillisecond, "file-service-2")
      .ServiceDown(1200 * kSimMillisecond, "file-service")
      .ServiceUp(1800 * kSimMillisecond, "file-service")
      .ServiceDown(2100 * kSimMillisecond, "file-service-3")
      .ServiceUp(2700 * kSimMillisecond, "file-service-3")
      .DiskCrash(2900 * kSimMillisecond, 1)
      .DiskRecover(3300 * kSimMillisecond, 1);
  return plan;
}

ChaosWorkloadConfig FourShardWorkload() {
  ChaosWorkloadConfig wl;
  wl.seed = 91;
  wl.operations = 300;
  wl.txn_files = 4;
  wl.replica_groups = 3;
  wl.agent_files = 4;
  return wl;
}

TEST(ShardTest, FourShardStormReachesTxnFilesAndReplicasThroughTheirOwners) {
  DistributedFileFacility f(ShardedConfig(4, 2));
  ChaosRunner runner(&f, FourShardWorkload());
  auto report = runner.Run(FourShardKills());
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_GT(report->txn_commits, 0u) << report->Summary();
  EXPECT_GT(report->replicated_writes, 0u) << report->Summary();
  EXPECT_GE(f.recovery().stats().shard_failovers, 3u) << report->Summary();
  EXPECT_GT(f.placement().stats().reroutes, 0u) << report->Summary();

  // The storm is only a test of the owner rule if some transaction file
  // and some replica live off shard 0.
  const auto off_zero = [&f](FileId id) {
    return f.placement().HomeShard(id) != 0;
  };
  const auto& txn_files = runner.txn_files();
  EXPECT_TRUE(std::any_of(txn_files.begin(), txn_files.end(), off_zero));
  bool replica_off_zero = false;
  for (auto g : f.replication().GroupIds()) {
    auto replicas = f.replication().Replicas(g);
    ASSERT_TRUE(replicas.ok());
    for (const auto& r : *replicas) replica_off_zero |= off_zero(r.file);
  }
  EXPECT_TRUE(replica_off_zero);
}

TEST(ShardTest, FourShardStormDeterministicGivenSeedAndPlan) {
  auto run = [] {
    DistributedFileFacility f(ShardedConfig(4, 2));
    ChaosRunner runner(&f, FourShardWorkload());
    auto report = runner.Run(FourShardKills());
    EXPECT_TRUE(report.ok());
    return report.ok() ? report->Summary() : std::string("setup failed");
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_NE(first, "setup failed");
}

}  // namespace
}  // namespace rhodos::core
