// Tests for the replication service: read-one/write-all, failover on disk
// crash, and replica repair.
#include <gtest/gtest.h>

#include "replication/replication_service.h"

namespace rhodos::replication {
namespace {

using file::FileService;
using file::ServiceType;

disk::DiskServerConfig DiskConfig() {
  disk::DiskServerConfig c;
  c.geometry.total_fragments = 4096;
  c.geometry.fragments_per_track = 32;
  return c;
}

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; ++i) disks_.AddDisk(DiskConfig(), &clock_);
    files_ = std::make_unique<FileService>(&disks_, &clock_,
                                           file::FileServiceConfig{});
    repl_ = std::make_unique<ReplicationService>(
        &disks_, &clock_, [this](FileId) -> FileService& { return *files_; });
  }

  std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed = 1) {
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<std::uint8_t>(seed + i * 7);
    }
    return v;
  }

  SimClock clock_;
  disk::DiskRegistry disks_;
  std::unique_ptr<FileService> files_;
  std::unique_ptr<ReplicationService> repl_;
};

TEST_F(ReplicationTest, ReplicasLandOnDistinctDisks) {
  auto group = repl_->CreateReplicated(ServiceType::kBasic, 3);
  ASSERT_TRUE(group.ok());
  auto replicas = repl_->Replicas(*group);
  ASSERT_TRUE(replicas.ok());
  ASSERT_EQ(replicas->size(), 3u);
  std::set<std::uint32_t> disks;
  for (const auto& r : *replicas) disks.insert(r.disk.value);
  EXPECT_EQ(disks.size(), 3u);
}

TEST_F(ReplicationTest, WriteAllReadOneRoundTrip) {
  auto group = repl_->CreateReplicated(ServiceType::kBasic, 3);
  ASSERT_TRUE(group.ok());
  const auto data = Pattern(5000);
  ASSERT_TRUE(repl_->Write(*group, 0, data).ok());
  std::vector<std::uint8_t> out(5000);
  ASSERT_TRUE(repl_->Read(*group, 0, out).ok());
  EXPECT_EQ(out, data);
  // Every replica individually holds the data.
  const auto replica_list = *repl_->Replicas(*group);
  for (const auto& r : replica_list) {
    std::vector<std::uint8_t> copy(5000);
    ASSERT_TRUE(files_->Read(r.file, 0, copy).ok());
    EXPECT_EQ(copy, data);
  }
  EXPECT_EQ(*repl_->CurrentVersion(*group), 1u);
}

TEST_F(ReplicationTest, ReadFailsOverWhenFirstReplicaDies) {
  auto group = repl_->CreateReplicated(ServiceType::kBasic, 3);
  ASSERT_TRUE(group.ok());
  const auto data = Pattern(2000, 9);
  ASSERT_TRUE(repl_->Write(*group, 0, data).ok());
  ASSERT_TRUE(files_->FlushAll().ok());
  files_->Crash();  // drop cached tables so reads must touch disks
  // Kill the disk the FIRST replica lives on.
  const auto replicas = *repl_->Replicas(*group);
  auto dead = disks_.Get(replicas[0].disk);
  (*dead)->Crash();
  std::vector<std::uint8_t> out(2000);
  ASSERT_TRUE(repl_->Read(*group, 0, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_GE(repl_->stats().failovers, 1u);
}

TEST_F(ReplicationTest, DegradedWriteMarksStaleReplicaAndRepairHeals) {
  auto group = repl_->CreateReplicated(ServiceType::kBasic, 3);
  ASSERT_TRUE(group.ok());
  ASSERT_TRUE(repl_->Write(*group, 0, Pattern(1000, 1)).ok());

  // One replica's disk goes down; the next write is degraded.
  const auto replicas = *repl_->Replicas(*group);
  ASSERT_TRUE(files_->FlushAll().ok());
  files_->Crash();
  auto dead = disks_.Get(replicas[1].disk);
  (*dead)->Crash();
  const auto v2 = Pattern(1000, 2);
  ASSERT_TRUE(repl_->Write(*group, 0, v2).ok());
  EXPECT_GE(repl_->stats().degraded_writes, 1u);

  // Disk comes back: the replica is stale until repaired.
  ASSERT_TRUE((*dead)->Recover().ok());
  bool found_stale = false;
  const auto mid_list = *repl_->Replicas(*group);
  for (const auto& r : mid_list) {
    if (r.version != *repl_->CurrentVersion(*group)) found_stale = true;
  }
  EXPECT_TRUE(found_stale);

  ASSERT_TRUE(repl_->Repair(*group).ok());
  EXPECT_GE(repl_->stats().repairs, 1u);
  const auto healed_list = *repl_->Replicas(*group);
  for (const auto& r : healed_list) {
    EXPECT_EQ(r.version, *repl_->CurrentVersion(*group));
    std::vector<std::uint8_t> copy(1000);
    ASSERT_TRUE(files_->Read(r.file, 0, copy).ok());
    EXPECT_EQ(copy, v2);
  }
}

TEST_F(ReplicationTest, WriteFailsWhenAllReplicasDown) {
  auto group = repl_->CreateReplicated(ServiceType::kBasic, 2);
  ASSERT_TRUE(group.ok());
  files_->Crash();
  disks_.CrashAll();
  EXPECT_EQ(repl_->Write(*group, 0, Pattern(10)).error().code,
            ErrorCode::kUnavailable);
}

TEST_F(ReplicationTest, DeleteRemovesAllReplicas) {
  auto group = repl_->CreateReplicated(ServiceType::kBasic, 3);
  ASSERT_TRUE(group.ok());
  const auto replicas = *repl_->Replicas(*group);
  ASSERT_TRUE(repl_->DeleteReplicated(*group).ok());
  for (const auto& r : replicas) {
    EXPECT_FALSE(files_->GetAttributes(r.file).ok());
  }
  EXPECT_FALSE(repl_->Replicas(*group).ok());
}

TEST_F(ReplicationTest, ZeroReplicasRefused) {
  EXPECT_EQ(repl_->CreateReplicated(ServiceType::kBasic, 0).error().code,
            ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace rhodos::replication
