// One owner per file: at every shard count the transaction and replication
// services reach a file through the shard that serves it, the same shard
// an agent's route picks. Two services caching one file would each miss
// the other's writes; these tests read every value back across the
// boundary, at 4 file shards with the file homed off shard 0.
//
// Also here: a transaction over two files homed on different shards is
// all-or-nothing under a crash at every stable write of its commit, since
// one intention log sits above every shard.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/facility.h"
#include "file/fsck.h"

namespace rhodos::core {
namespace {

constexpr std::uint64_t kFileBytes = 100;

FacilityConfig FourShards() {
  FacilityConfig cfg;
  cfg.disk_count = 3;
  cfg.geometry.total_fragments = 16 * 1024;
  cfg.geometry.fragments_per_track = 32;
  cfg.sharding.file_shards = 4;
  cfg.sharding.naming_shards = 2;
  return cfg;
}

std::vector<std::uint8_t> Fill(std::uint8_t value,
                               std::uint64_t n = kFileBytes) {
  return std::vector<std::uint8_t>(n, value);
}

// Commits `bytes` over `file` at offset 0 (creating a page-locked file when
// `file` is null); returns the file.
FileId Commit(DistributedFileFacility& f, FileId file,
              const std::vector<std::uint8_t>& bytes) {
  auto& txns = f.transactions();
  auto t = txns.Begin(ProcessId{1});
  EXPECT_TRUE(t.ok());
  if (file == FileId{}) {
    auto created = txns.TCreate(*t, file::LockLevel::kPage, kFileBytes);
    EXPECT_TRUE(created.ok()) << created.error().message;
    file = *created;
  }
  EXPECT_TRUE(txns.TWrite(*t, file, 0, bytes).ok());
  const Status end = txns.End(*t);
  EXPECT_TRUE(end.ok()) << end.error().message;
  return file;
}

// A committed transaction file whose home shard is not `avoid`.
FileId TxnFileOffShard(DistributedFileFacility& f, std::uint32_t avoid,
                       std::uint8_t value) {
  for (int i = 0; i < 32; ++i) {
    const FileId id = Commit(f, FileId{}, Fill(value));
    if (f.placement().HomeShard(id) != avoid) return id;
  }
  ADD_FAILURE() << "every transaction file homed on shard " << avoid;
  return FileId{};
}

std::uint8_t AgentReadsByte(Machine& m, FileId file) {
  auto od = m.file_agent->OpenById(file);
  EXPECT_TRUE(od.ok()) << od.error().message;
  std::vector<std::uint8_t> out(kFileBytes);
  auto n = m.file_agent->Pread(*od, 0, out);
  EXPECT_TRUE(n.ok()) << n.error().message;
  EXPECT_TRUE(m.file_agent->Close(*od).ok());
  return out[0];
}

TEST(ShardOwnerTest, AgentReopenReadsTheCommittedBytes) {
  DistributedFileFacility f(FourShards());
  Machine& m = f.AddMachine();
  const FileId id = TxnFileOffShard(f, 0, 1);
  EXPECT_EQ(AgentReadsByte(m, id), 1);
  Commit(f, id, Fill(2));
  EXPECT_EQ(AgentReadsByte(m, id), 2);
}

TEST(ShardOwnerTest, NewTransactionReadsTheAgentsFlushedBytes) {
  DistributedFileFacility f(FourShards());
  Machine& m = f.AddMachine();
  const FileId id = TxnFileOffShard(f, 0, 2);
  auto od = m.file_agent->OpenById(id);
  ASSERT_TRUE(od.ok());
  ASSERT_TRUE(m.file_agent->Pwrite(*od, 0, Fill(3)).ok());
  ASSERT_TRUE(m.file_agent->Flush(*od).ok());
  ASSERT_TRUE(m.file_agent->Close(*od).ok());

  auto& txns = f.transactions();
  auto t = txns.Begin(ProcessId{2});
  ASSERT_TRUE(t.ok());
  std::vector<std::uint8_t> out(kFileBytes);
  auto n = txns.TRead(*t, id, 0, out);
  ASSERT_TRUE(n.ok()) << n.error().message;
  EXPECT_EQ(out, Fill(3));
  ASSERT_TRUE(txns.End(*t).ok());
}

TEST(ShardOwnerTest, OwnerOfReadsTheLatestValue) {
  DistributedFileFacility f(FourShards());
  Machine& m = f.AddMachine();
  const FileId id = TxnFileOffShard(f, 0, 4);
  EXPECT_EQ(&f.OwnerOf(id), &f.files(f.placement().HomeShard(id)));
  auto od = m.file_agent->OpenById(id);
  ASSERT_TRUE(od.ok());
  ASSERT_TRUE(m.file_agent->Pwrite(*od, 0, Fill(5)).ok());
  ASSERT_TRUE(m.file_agent->Close(*od).ok());
  std::vector<std::uint8_t> out(kFileBytes);
  ASSERT_TRUE(f.OwnerOf(id).Read(id, 0, out).ok());
  EXPECT_EQ(out, Fill(5));
  Commit(f, id, Fill(6));
  ASSERT_TRUE(f.OwnerOf(id).Read(id, 0, out).ok());
  EXPECT_EQ(out, Fill(6));
}

TEST(ShardOwnerTest, AgentReadsTheReplicationServicesLastWrite) {
  DistributedFileFacility f(FourShards());
  Machine& m = f.AddMachine();
  auto& repl = f.replication();
  // A basic-typed group keeps the service's delayed writes in its owner's
  // cache, so an agent served by any other shard would read zeros.
  replication::GroupId group;
  FileId replica{};
  for (int i = 0; i < 16 && replica == FileId{}; ++i) {
    auto g = repl.CreateReplicated(file::ServiceType::kBasic, 3, kFileBytes);
    ASSERT_TRUE(g.ok()) << g.error().message;
    auto replicas = repl.Replicas(*g);
    ASSERT_TRUE(replicas.ok());
    for (const auto& r : *replicas) {
      if (f.placement().HomeShard(r.file) != 0) {
        group = *g;
        replica = r.file;
        break;
      }
    }
  }
  ASSERT_NE(replica, FileId{}) << "every replica homed on shard 0";

  ASSERT_TRUE(repl.Write(group, 0, Fill(1)).ok());
  EXPECT_EQ(AgentReadsByte(m, replica), 1);
  ASSERT_TRUE(repl.Write(group, 0, Fill(2)).ok());
  EXPECT_EQ(AgentReadsByte(m, replica), 2);
}

TEST(ShardOwnerTest, PlacementCountersCountOnlyAgentRoutes) {
  DistributedFileFacility f(FourShards());
  const FileId id = TxnFileOffShard(f, 0, 7);
  Commit(f, id, Fill(8));
  EXPECT_EQ(f.placement().stats().lookups, 0u);
  EXPECT_EQ(f.placement().stats().reroutes, 0u);
}

// Any shard may create: a service-side create runs on the shard that
// serves the null id, so the file is often served by another shard. A
// create whose hint fits no disk in one run grows the file, and the
// zero-fill of that growth must not wait in the creator's cache: a later
// flush there would write zeros over what the owner commits meanwhile.
TEST(ShardOwnerTest, CreatorsFlushNeverOverwritesTheOwnersCommit) {
  FacilityConfig cfg = FourShards();
  cfg.geometry.total_fragments = 1024;  // 256 blocks a disk
  cfg.file.block_pool_capacity = 512;
  cfg.txn.technique = txn::TxnServiceConfig::TechniqueOverride::kWalAlways;
  DistributedFileFacility f(cfg);
  file::FileService* creator = &f.OwnerOf(FileId{});
  const std::uint64_t blocks = 260;  // more than one disk holds
  auto& txns = f.transactions();

  FileId id{};
  for (int i = 0; i < 2 && id == FileId{}; ++i) {
    auto t = txns.Begin(ProcessId{4});
    ASSERT_TRUE(t.ok());
    auto created =
        txns.TCreate(*t, file::LockLevel::kPage, blocks * kBlockSize);
    ASSERT_TRUE(created.ok()) << created.error().message;
    ASSERT_TRUE(txns.End(*t).ok());
    if (&f.OwnerOf(*created) != creator) id = *created;
  }
  ASSERT_NE(id, FileId{}) << "both files served by their creator";
  ASSERT_GT(f.OwnerOf(id).FileRuns(id)->size(), 1u);

  const std::uint64_t offset = 100 * kBlockSize;
  auto t = txns.Begin(ProcessId{5});
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(txns.TWrite(*t, id, offset, Fill(0x5A)).ok());
  ASSERT_TRUE(txns.End(*t).ok());

  // A route change fences every shard: each flushes, then drops its
  // cache, so the read below comes from the platters.
  const std::uint32_t home = f.placement().HomeShard(id);
  f.placement().SuspectShard(home);
  f.placement().ReadmitShard(home);
  std::vector<std::uint8_t> out(kFileBytes);
  ASSERT_TRUE(f.OwnerOf(id).Read(id, offset, out).ok());
  EXPECT_EQ(out, Fill(0x5A));
}

// --- the audit spans every shard ----------------------------------------------

// Shards share one disk registry, so the typical corruption is two files
// served by different shards claiming one block. The audit reads each
// file through its owner but keeps one claim census over every file.
TEST(ShardOwnerTest, AuditCatchesABlockClaimedFromTwoShards) {
  DistributedFileFacility f(FourShards());
  const FileId a = TxnFileOffShard(f, 0, 30);
  const FileId b = TxnFileOffShard(f, f.placement().HomeShard(a), 31);
  ASSERT_NE(f.placement().HomeShard(a), f.placement().HomeShard(b));
  const file::FileResolver owner_of = [&f](FileId id) -> file::FileService& {
    return f.OwnerOf(id);
  };
  const std::vector<FileId> ids = {a, b};
  EXPECT_TRUE(file::AuditFiles(owner_of, ids).clean());

  // Corrupt: b's block 0 now names a's block 0 (its old block is freed).
  auto a_loc = f.OwnerOf(a).LocateBlock(a, 0);
  ASSERT_TRUE(a_loc.ok());
  ASSERT_TRUE(f.OwnerOf(b)
                  .ReplaceBlocks(b, {{0, a_loc->disk, a_loc->first_fragment}})
                  .ok());
  const file::AuditReport report = file::AuditFiles(owner_of, ids);
  EXPECT_GE(report.CountOf(file::AuditIssue::Kind::kRefcountLow), 1u);
  EXPECT_GE(report.CountOf(file::AuditIssue::Kind::kSharedFlagMissing), 1u);
}

// --- one intention log above every shard ------------------------------------

struct TwoShardWorld {
  DistributedFileFacility f{FourShards()};
  FileId a{};
  FileId b{};

  TwoShardWorld() {
    a = TxnFileOffShard(f, 0, 10);
    b = TxnFileOffShard(f, f.placement().HomeShard(a), 20);
  }

  // One transaction over both files; true when End() reported a commit.
  bool CommitBoth() {
    auto& txns = f.transactions();
    auto t = txns.Begin(ProcessId{3});
    if (!t.ok()) return false;
    if (!txns.TWrite(*t, a, 0, Fill(11)).ok() ||
        !txns.TWrite(*t, b, 0, Fill(21)).ok()) {
      (void)txns.Abort(*t);
      return false;
    }
    return txns.End(*t).ok();
  }

  sim::DiskModel& LogDevice() {
    return (*f.disks().Get(DiskId{0}))->stable_device();
  }
};

TEST(ShardOwnerTest, CrossShardCommitIsAllOrNothingAtEveryStableWrite) {
  std::uint64_t total = 0;
  {
    TwoShardWorld w;
    ASSERT_NE(w.f.placement().HomeShard(w.a), w.f.placement().HomeShard(w.b));
    const std::uint64_t before = w.LogDevice().stats().write_references;
    ASSERT_TRUE(w.CommitBoth());
    total = w.LogDevice().stats().write_references - before;
  }
  ASSERT_GT(total, 0u);

  std::uint64_t rolled_back = 0;
  std::uint64_t committed = 0;
  for (std::uint64_t k = 0; k <= total; ++k) {
    SCOPED_TRACE("crash_after_stable_writes=" + std::to_string(k));
    TwoShardWorld w;
    w.LogDevice().SetFaultPlan(
        sim::DiskFaultPlan{.crash_after_writes = static_cast<std::int64_t>(k)});
    const bool acked = w.CommitBoth();
    // The plan must not fire again during recovery's own writes.
    w.LogDevice().SetFaultPlan(sim::DiskFaultPlan{});
    w.f.CrashServers();
    ASSERT_TRUE(w.f.RecoverServers().ok());

    std::vector<std::uint8_t> got_a(kFileBytes);
    std::vector<std::uint8_t> got_b(kFileBytes);
    ASSERT_TRUE(w.f.OwnerOf(w.a).Read(w.a, 0, got_a).ok());
    ASSERT_TRUE(w.f.OwnerOf(w.b).Read(w.b, 0, got_b).ok());
    const bool new_a = got_a == Fill(11);
    const bool new_b = got_b == Fill(21);
    EXPECT_TRUE(new_a || got_a == Fill(10));
    EXPECT_TRUE(new_b || got_b == Fill(20));
    EXPECT_EQ(new_a, new_b) << "the commit was applied on one shard only";
    EXPECT_TRUE(new_a || !acked) << "an acknowledged commit was lost";
    (new_a ? committed : rolled_back) += 1;

    // Agents route each file to its home shard and read what recovery left.
    Machine& m = w.f.AddMachine();
    EXPECT_EQ(AgentReadsByte(m, w.a), got_a[0]);
    EXPECT_EQ(AgentReadsByte(m, w.b), got_b[0]);
  }
  // The sweep saw both outcomes: a crash before the commit point and after.
  EXPECT_GT(rolled_back, 0u);
  EXPECT_GT(committed, 0u);
}

}  // namespace
}  // namespace rhodos::core
