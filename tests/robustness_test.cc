// Error-path and resource-exhaustion coverage: disk-full behaviour, media
// errors, log exhaustion, descriptor misuse — a production file facility is
// defined as much by how it fails as by how it works.
#include <gtest/gtest.h>

#include "core/facility.h"

namespace rhodos {
namespace {

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i);
  }
  return v;
}

core::FacilityConfig TinyFacility() {
  core::FacilityConfig c;
  c.geometry.total_fragments = 2048;  // 4 MiB disk
  c.txn.log_fragments = 64;
  return c;
}

TEST(DiskFullTest, WritesFailCleanlyAndSpaceIsReclaimable) {
  core::DistributedFileFacility f(TinyFacility());
  // Fill the disk with files until creation fails.
  std::vector<FileId> files;
  while (true) {
    auto id = f.files().Create(file::ServiceType::kBasic, 64 * kBlockSize);
    if (!id.ok()) {
      EXPECT_EQ(id.error().code, ErrorCode::kNoSpace);
      break;
    }
    auto n = f.files().Write(*id, 0, Pattern(64 * kBlockSize));
    files.push_back(*id);
    if (!n.ok()) {
      EXPECT_EQ(n.error().code, ErrorCode::kNoSpace);
      break;
    }
    ASSERT_LT(files.size(), 1000u) << "disk never filled";
  }
  ASSERT_FALSE(files.empty());
  // Existing data is still readable after the failure.
  std::vector<std::uint8_t> out(kBlockSize);
  ASSERT_TRUE(f.files().Read(files[0], 0, out).ok());
  // Deleting returns space; creation works again.
  ASSERT_TRUE(f.files().Delete(files[0]).ok());
  EXPECT_TRUE(f.files().Create(file::ServiceType::kBasic,
                               8 * kBlockSize)
                  .ok());
}

TEST(DiskFullTest, TxnCreateFailureLeavesServiceConsistent) {
  core::DistributedFileFacility f(TinyFacility());
  auto& txns = f.transactions();
  // Exhaust the disk.
  while (f.files().Create(file::ServiceType::kBasic, 64 * kBlockSize).ok()) {
  }
  auto t = txns.Begin(ProcessId{1});
  auto file = txns.TCreate(*t, file::LockLevel::kPage, 64 * kBlockSize);
  EXPECT_FALSE(file.ok());
  // The transaction is still usable (or abortable) after the failure.
  EXPECT_TRUE(txns.Abort(*t).ok() || !txns.IsActive(*t));
}

TEST(MediaErrorTest, ReadErrorsPropagateNotCrash) {
  core::DistributedFileFacility f(TinyFacility());
  auto file = f.files().Create(file::ServiceType::kBasic, 4 * kBlockSize);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(f.files().Write(*file, 0, Pattern(4 * kBlockSize)).ok());
  ASSERT_TRUE(f.files().FlushAll().ok());
  f.files().Crash();
  auto server = f.disks().Get(DiskId{0});
  (*server)->Crash();
  ASSERT_TRUE((*server)->Recover().ok());
  (*server)->SetFaultPlan(sim::DiskFaultPlan{.media_error_rate = 1.0});
  std::vector<std::uint8_t> out(kBlockSize);
  auto n = f.files().Read(*file, 0, out);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.error().code, ErrorCode::kMediaError);
  // Heal the device: reads work again.
  (*server)->SetFaultPlan(sim::DiskFaultPlan{});
  EXPECT_TRUE(f.files().Read(*file, 0, out).ok());
}

TEST(LogFullTest, CommitFailsCleanlyWhenIntentionLogOverflows) {
  core::FacilityConfig cfg = TinyFacility();
  cfg.txn.log_fragments = 8;  // 16 KiB log: fits one page image at most
  core::DistributedFileFacility f(cfg);
  auto& txns = f.transactions();
  auto t = txns.Begin(ProcessId{1});
  auto file = txns.TCreate(*t, file::LockLevel::kPage, 8 * kBlockSize);
  ASSERT_TRUE(file.ok());
  // Eight page images cannot fit an 16 KiB log.
  ASSERT_TRUE(txns.TWrite(*t, *file, 0, Pattern(8 * kBlockSize)).ok());
  auto st = txns.End(*t);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, ErrorCode::kNoSpace);
  // The service remains usable for smaller transactions.
  auto t2 = txns.Begin(ProcessId{1});
  auto small = txns.TCreate(*t2, file::LockLevel::kRecord, 0);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(txns.TWrite(*t2, *small, 0, Pattern(100)).ok());
  EXPECT_TRUE(txns.End(*t2).ok());
}

TEST(DescriptorMisuseTest, AgentRejectsForeignAndClosedDescriptors) {
  core::DistributedFileFacility f(TinyFacility());
  auto& m = f.AddMachine();
  auto od = m.file_agent->Create(naming::ByName("x"),
                                 file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  ASSERT_TRUE(m.file_agent->Close(*od).ok());
  std::vector<std::uint8_t> buf(8);
  EXPECT_EQ(m.file_agent->Read(*od, buf).error().code,
            ErrorCode::kBadDescriptor);
  EXPECT_EQ(m.file_agent->Close(*od).code(), ErrorCode::kBadDescriptor);
  // Device descriptors never reach the file agent's space and vice versa.
  EXPECT_EQ(m.file_agent->Read(2, buf).error().code,
            ErrorCode::kBadDescriptor);
}

TEST(DescriptorMisuseTest, TxnOpsOnFinishedTransactionRejected) {
  core::DistributedFileFacility f(TinyFacility());
  auto& m = f.AddMachine();
  auto process = f.CreateProcess();
  auto t = m.txn_agent->TBegin(process);
  ASSERT_TRUE(t.ok());
  auto od = m.txn_agent->TCreate(*t, naming::ByName("y"),
                                 file::LockLevel::kPage);
  ASSERT_TRUE(od.ok());
  ASSERT_TRUE(m.txn_agent->TEnd(*t, process).ok());
  // The agent retired with the last transaction; its descriptors are gone.
  std::vector<std::uint8_t> buf(8);
  EXPECT_FALSE(m.txn_agent->TRead(*t, *od, buf).ok());
}

TEST(DeletedFileTest, OperationsOnDeletedFileFail) {
  core::DistributedFileFacility f(TinyFacility());
  auto file = f.files().Create(file::ServiceType::kBasic, kBlockSize);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(f.files().Write(*file, 0, Pattern(100)).ok());
  ASSERT_TRUE(f.files().Delete(*file).ok());
  std::vector<std::uint8_t> out(100);
  EXPECT_FALSE(f.files().Read(*file, 0, out).ok());
  EXPECT_FALSE(f.files().GetAttributes(*file).ok());
  EXPECT_FALSE(f.files().Resize(*file, 10).ok());
  EXPECT_FALSE(f.files().Delete(*file).ok());
}

TEST(RecoveryIdempotenceTest, RepeatedCrashRecoverCyclesAreStable) {
  core::DistributedFileFacility f(TinyFacility());
  auto& txns = f.transactions();
  auto t = txns.Begin(ProcessId{1});
  auto file = txns.TCreate(*t, file::LockLevel::kPage, 2 * kBlockSize);
  const auto data = Pattern(2 * kBlockSize, 9);
  ASSERT_TRUE(txns.TWrite(*t, *file, 0, data).ok());
  ASSERT_TRUE(txns.End(*t).ok());
  for (int cycle = 0; cycle < 5; ++cycle) {
    f.CrashServers();
    ASSERT_TRUE(f.RecoverServers().ok()) << "cycle " << cycle;
    std::vector<std::uint8_t> out(2 * kBlockSize);
    ASSERT_TRUE(f.files().Read(*file, 0, out).ok());
    ASSERT_EQ(out, data) << "cycle " << cycle;
  }
}

TEST(BusOutageTest, AgentSurfacesUnavailabilityAndRecovers) {
  core::FacilityConfig cfg = TinyFacility();
  cfg.agent.rpc.max_attempts = 2;
  core::DistributedFileFacility f(cfg);
  auto& m = f.AddMachine();
  auto od = m.file_agent->Create(naming::ByName("net"),
                                 file::ServiceType::kBasic);
  ASSERT_TRUE(od.ok());
  // Total outage: everything dropped. GetAttribute always crosses the wire.
  f.bus().SetConfig(sim::NetworkConfig{.drop_rate = 1.0});
  auto attrs = m.file_agent->GetAttribute(*od);
  ASSERT_FALSE(attrs.ok());
  EXPECT_EQ(attrs.error().code, ErrorCode::kUnavailable);
  // Network heals: the same descriptor works again.
  f.bus().SetConfig(sim::NetworkConfig{});
  EXPECT_TRUE(m.file_agent->GetAttribute(*od).ok());
  std::vector<std::uint8_t> buf(kBlockSize);
  ASSERT_TRUE(m.file_agent->Pwrite(*od, 0, Pattern(64)).ok());
  EXPECT_TRUE(m.file_agent->Pread(*od, 0, buf).ok());
}

}  // namespace
}  // namespace rhodos
