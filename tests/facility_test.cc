// Integration tests: the whole Figure 1 architecture working end to end,
// including multi-machine sharing, multi-level caching behaviour, and
// whole-system crash recovery.
#include <gtest/gtest.h>

#include "core/facility.h"

namespace rhodos::core {
namespace {

FacilityConfig MediumFacility(std::uint32_t disks = 2) {
  FacilityConfig c;
  c.disk_count = disks;
  c.geometry.total_fragments = 8192;
  c.geometry.fragments_per_track = 32;
  return c;
}

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 5);
  }
  return v;
}

TEST(FacilityTest, TwoMachinesShareOneFile) {
  DistributedFileFacility f(MediumFacility());
  Machine& alice = f.AddMachine();
  Machine& bob = f.AddMachine();

  auto od = alice.file_agent->Create(naming::ByName("shared"),
                                     file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  const auto data = Pattern(10'000);
  ASSERT_TRUE(alice.file_agent->Write(*od, data).ok());
  ASSERT_TRUE(alice.file_agent->Close(*od).ok());  // flushes to the server

  auto bod = bob.file_agent->Open(naming::ByName("shared"));
  ASSERT_TRUE(bod.ok());
  std::vector<std::uint8_t> out(10'000);
  ASSERT_TRUE(bob.file_agent->Pread(*bod, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST(FacilityTest, CachingAvoidsDescendingTheLayers) {
  // The architecture claim of §2.2: "it provides caching at each level to
  // avoid descending to a lower level to satisfy each request".
  DistributedFileFacility f(MediumFacility());
  Machine& m = f.AddMachine();
  auto od = m.file_agent->Create(naming::ByName("layers"),
                                 file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  ASSERT_TRUE(m.file_agent->Write(*od, Pattern(4 * kBlockSize)).ok());
  ASSERT_TRUE(m.file_agent->Flush(*od).ok());

  std::vector<std::uint8_t> out(4 * kBlockSize);
  ASSERT_TRUE(m.file_agent->Pread(*od, 0, out).ok());  // warm the caches

  // Level 1: agent cache absorbs the repeat read — zero messages.
  f.ResetStats();
  ASSERT_TRUE(m.file_agent->Pread(*od, 0, out).ok());
  EXPECT_EQ(f.bus().stats().calls, 0u);

  // Level 2: a fresh machine misses its agent cache but the file-service
  // cache absorbs the disk access — messages flow, disks stay idle.
  Machine& fresh = f.AddMachine();
  auto od2 = fresh.file_agent->Open(naming::ByName("layers"));
  ASSERT_TRUE(od2.ok());
  f.ResetStats();
  ASSERT_TRUE(fresh.file_agent->Pread(*od2, 0, out).ok());
  EXPECT_GT(f.bus().stats().calls, 0u);
  std::uint64_t disk_reads = 0;
  for (const auto& d : f.disks().disks()) {
    disk_reads += d->main_stats().read_references;
  }
  EXPECT_EQ(disk_reads, 0u);
}

TEST(FacilityTest, EndToEndTransactionalTransferSurvivesCrash) {
  // A bank-transfer style scenario: committed transfers survive a server
  // crash; an in-flight transfer disappears.
  DistributedFileFacility f(MediumFacility());
  Machine& m = f.AddMachine();
  auto process = f.CreateProcess();

  // Set up the account file with two 64-bit balances via a transaction.
  auto t0 = m.txn_agent->TBegin(process);
  ASSERT_TRUE(t0.ok());
  auto od = m.txn_agent->TCreate(*t0, naming::ByName("accounts"),
                                 file::LockLevel::kRecord, 0);
  ASSERT_TRUE(od.ok());
  const std::vector<std::uint8_t> init(16, 0);  // two zero balances
  ASSERT_TRUE(m.txn_agent->TPwrite(*t0, *od, 0, init).ok());
  ASSERT_TRUE(m.txn_agent->TEnd(*t0, process).ok());

  // Committed transfer: +100 to account 0.
  auto t1 = m.txn_agent->TBegin(process);
  auto od1 = m.txn_agent->TOpen(*t1, naming::ByName("accounts"));
  ASSERT_TRUE(od1.ok());
  std::vector<std::uint8_t> bal(8, 0);
  bal[0] = 100;
  ASSERT_TRUE(m.txn_agent->TPwrite(*t1, *od1, 0, bal).ok());
  ASSERT_TRUE(m.txn_agent->TEnd(*t1, process).ok());

  // In-flight transfer: +50 to account 1, never committed.
  auto t2 = m.txn_agent->TBegin(process);
  auto od2 = m.txn_agent->TOpen(*t2, naming::ByName("accounts"));
  ASSERT_TRUE(od2.ok());
  std::vector<std::uint8_t> bal2(8, 0);
  bal2[0] = 50;
  ASSERT_TRUE(m.txn_agent->TPwrite(*t2, *od2, 8, bal2).ok());

  // CRASH the servers mid-transaction; recover.
  f.CrashServers();
  ASSERT_TRUE(f.RecoverServers().ok());

  // The committed balance survived; the tentative one did not.
  auto fid = f.naming().ResolveFile(naming::ByName("accounts"));
  ASSERT_TRUE(fid.ok());
  std::vector<std::uint8_t> out(16);
  ASSERT_TRUE(f.files().Read(*fid, 0, out).ok());
  EXPECT_EQ(out[0], 100);
  EXPECT_EQ(out[8], 0);
}

TEST(FacilityTest, FileSpansMultipleDisksTransparently) {
  FacilityConfig cfg = MediumFacility(4);
  cfg.file.extent_blocks = 8;
  cfg.file.extend_in_place = false;  // force striping
  DistributedFileFacility f(cfg);
  Machine& m = f.AddMachine();
  auto od = m.file_agent->Create(naming::ByName("big"),
                                 file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  const auto data = Pattern(48 * kBlockSize, 3);
  ASSERT_TRUE(m.file_agent->Write(*od, data).ok());
  ASSERT_TRUE(m.file_agent->Close(*od).ok());

  auto fid = f.naming().ResolveFile(naming::ByName("big"));
  ASSERT_TRUE(fid.ok());
  int disks_touched = 0;
  for (const auto& d : f.disks().disks()) {
    if (d->FreeFragmentCount() < d->TotalFragmentCount() -
                                     d->MetadataFragments() - 600) {
      // crude: this disk holds a meaningful share of the file
    }
    if (d->main_stats().fragments_written > 0) ++disks_touched;
  }
  EXPECT_GE(disks_touched, 2);
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(f.files().Read(*fid, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST(FacilityTest, ReplicatedFileSurvivesDiskLoss) {
  DistributedFileFacility f(MediumFacility(3));
  auto group = f.replication().CreateReplicated(file::ServiceType::kBasic,
                                                3);
  ASSERT_TRUE(group.ok());
  const auto data = Pattern(3000, 6);
  ASSERT_TRUE(f.replication().Write(*group, 0, data).ok());
  ASSERT_TRUE(f.files().FlushAll().ok());
  f.files().Crash();
  auto d0 = f.disks().Get(DiskId{0});
  (*d0)->Crash();
  std::vector<std::uint8_t> out(3000);
  ASSERT_TRUE(f.replication().Read(*group, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST(FacilityTest, BasicAndTransactionFilesCoexist) {
  DistributedFileFacility f(MediumFacility());
  Machine& m = f.AddMachine();
  auto process = f.CreateProcess();

  auto basic = m.file_agent->Create(naming::ByName("basic"),
                                    file::ServiceType::kBasic);
  ASSERT_TRUE(basic.ok());
  ASSERT_TRUE(m.file_agent->Write(*basic, Pattern(100, 1)).ok());

  auto t = m.txn_agent->TBegin(process);
  auto tod = m.txn_agent->TCreate(*t, naming::ByName("txnal"),
                                  file::LockLevel::kPage, 0);
  ASSERT_TRUE(tod.ok());
  ASSERT_TRUE(m.txn_agent->TWrite(*t, *tod, Pattern(100, 2)).ok());
  ASSERT_TRUE(m.txn_agent->TEnd(*t, process).ok());
  ASSERT_TRUE(m.file_agent->Close(*basic).ok());

  auto bid = f.naming().ResolveFile(naming::ByName("basic"));
  auto tid = f.naming().ResolveFile(naming::ByName("txnal"));
  EXPECT_EQ(f.files().GetAttributes(*bid)->service_type,
            file::ServiceType::kBasic);
  EXPECT_EQ(f.files().GetAttributes(*tid)->service_type,
            file::ServiceType::kTransaction);
}

TEST(FacilityTest, ResetStatsZeroesEveryReportedCounter) {
  DistributedFileFacility f(MediumFacility(3));
  Machine& m = f.AddMachine();
  auto process = f.CreateProcess();

  auto od = m.file_agent->Create(naming::ByName("reset"),
                                 file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  ASSERT_TRUE(m.file_agent->Write(*od, Pattern(3 * kBlockSize)).ok());
  ASSERT_TRUE(m.file_agent->Flush(*od).ok());
  ASSERT_TRUE(m.file_agent->Close(*od).ok());

  auto t = m.txn_agent->TBegin(process);
  ASSERT_TRUE(t.ok());
  auto tod = m.txn_agent->TCreate(*t, naming::ByName("ledger"),
                                  file::LockLevel::kRecord, 0);
  ASSERT_TRUE(tod.ok());
  ASSERT_TRUE(m.txn_agent->TPwrite(*t, *tod, 0, Pattern(64, 4)).ok());
  ASSERT_TRUE(m.txn_agent->TEnd(*t, process).ok());

  auto group = f.replication().CreateReplicated(file::ServiceType::kBasic,
                                                3);
  ASSERT_TRUE(group.ok());
  ASSERT_TRUE(f.replication().Write(*group, 0, Pattern(1000, 5)).ok());
  f.recovery().Tick();

  std::size_t counted = 0;
  for (const auto& [name, value] : f.StatsSnapshot().counters) {
    if (value != 0) ++counted;
  }
  EXPECT_GT(counted, 40u) << "the workload should touch most layers";

  f.ResetStats();
  for (const auto& [name, value] : f.StatsSnapshot().counters) {
    EXPECT_EQ(value, 0u) << name << " survived ResetStats()";
  }
}

}  // namespace
}  // namespace rhodos::core
