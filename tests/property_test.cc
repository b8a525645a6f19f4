// Property-based suites over the facility's core invariants:
//   * serializability: concurrent read-modify-write transactions never
//     lose updates, at any locking granularity;
//   * the file service behaves like a flat byte array (random operations
//     checked against an in-memory model);
//   * atomicity: a crash at a random point leaves every file in either its
//     pre- or post-transaction state, never a mixture.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "core/facility.h"

namespace rhodos {
namespace {

using file::LockLevel;

// --- serializability ------------------------------------------------------------

struct SerializabilityParam {
  LockLevel level;
  std::uint64_t seed;
};

class SerializabilityTest
    : public ::testing::TestWithParam<SerializabilityParam> {};

TEST_P(SerializabilityTest, ConcurrentIncrementsNeverLoseUpdates) {
  const auto param = GetParam();
  core::FacilityConfig cfg;
  cfg.geometry.total_fragments = 8192;
  cfg.txn.lock_timeout.lt = std::chrono::milliseconds(10);
  core::DistributedFileFacility facility(cfg);
  auto& txns = facility.transactions();

  // One shared counter in a transaction file.
  auto t0 = txns.Begin(ProcessId{0});
  auto file = txns.TCreate(*t0, param.level, kBlockSize);
  std::uint8_t zero[8] = {0};
  ASSERT_TRUE(txns.TWrite(*t0, *file, 0, zero).ok());
  ASSERT_TRUE(txns.End(*t0).ok());

  constexpr int kWorkers = 4;
  constexpr int kIncrementsEach = 25;
  std::atomic<std::uint64_t> committed{0};
  auto worker = [&](int id) {
    Rng rng(param.seed * 100 + static_cast<std::uint64_t>(id));
    for (int i = 0; i < kIncrementsEach; ++i) {
      while (true) {
        auto t = txns.Begin(ProcessId{static_cast<std::uint64_t>(id)});
        std::uint8_t buf[8];
        // Read with intent to update: takes the IR lock, preventing the
        // read-then-clobber race that RO would permit.
        const bool ok =
            txns.TRead(*t, *file, 0, buf, txn::ReadIntent::kForUpdate)
                .ok() &&
            [&] {
              std::uint64_t v;
              std::memcpy(&v, buf, 8);
              ++v;
              std::memcpy(buf, &v, 8);
              return txns.TWrite(*t, *file, 0, buf).ok();
            }();
        if (ok && txns.End(*t).ok()) {
          ++committed;
          break;
        }
        if (txns.IsActive(*t)) (void)txns.Abort(*t);
        // Aborted by the timeout rule: retry.
      }
    }
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) threads.emplace_back(worker, w);
  for (auto& th : threads) th.join();

  std::uint8_t final_buf[8];
  ASSERT_TRUE(facility.files().Read(*file, 0, final_buf).ok());
  std::uint64_t final_value;
  std::memcpy(&final_value, final_buf, 8);
  // Every committed increment is reflected exactly once: no lost updates,
  // no double-applies — the serializability property 2PL guarantees.
  EXPECT_EQ(final_value, committed.load());
  EXPECT_EQ(committed.load(),
            static_cast<std::uint64_t>(kWorkers * kIncrementsEach));
}

INSTANTIATE_TEST_SUITE_P(
    Levels, SerializabilityTest,
    ::testing::Values(SerializabilityParam{LockLevel::kRecord, 1},
                      SerializabilityParam{LockLevel::kPage, 2},
                      SerializabilityParam{LockLevel::kFile, 3},
                      SerializabilityParam{LockLevel::kRecord, 4}),
    [](const ::testing::TestParamInfo<SerializabilityParam>& info) {
      switch (info.param.level) {
        case LockLevel::kRecord:
          return "Record_seed" + std::to_string(info.param.seed);
        case LockLevel::kPage:
          return "Page_seed" + std::to_string(info.param.seed);
        case LockLevel::kFile:
          return "File_seed" + std::to_string(info.param.seed);
      }
      return std::string("unknown");
    });

// --- file service vs flat-array model ----------------------------------------------

class FileModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FileModelTest, RandomOpsMatchModel) {
  Rng rng(GetParam());
  core::FacilityConfig cfg;
  cfg.geometry.total_fragments = 32 * 1024;
  core::DistributedFileFacility facility(cfg);
  auto& files = facility.files();

  constexpr int kFiles = 3;
  constexpr std::uint64_t kMaxSize = 96 * 1024;
  std::vector<FileId> ids;
  std::vector<std::vector<std::uint8_t>> model(kFiles);
  for (int i = 0; i < kFiles; ++i) {
    auto f = files.Create(file::ServiceType::kBasic,
                          rng.Below(4) * kBlockSize);
    ASSERT_TRUE(f.ok());
    ids.push_back(*f);
  }

  for (int step = 0; step < 250; ++step) {
    const auto which = static_cast<std::size_t>(rng.Below(kFiles));
    auto& m = model[which];
    const FileId id = ids[which];
    switch (rng.Below(5)) {
      case 0:
      case 1: {  // write
        const std::uint64_t offset = rng.Below(kMaxSize / 2);
        const std::uint64_t len = 1 + rng.Below(3 * kBlockSize);
        std::vector<std::uint8_t> data(len);
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
        auto n = files.Write(id, offset, data);
        ASSERT_TRUE(n.ok()) << n.error().ToString();
        if (m.size() < offset + len) m.resize(offset + len, 0);
        std::memcpy(m.data() + offset, data.data(), len);
        break;
      }
      case 2: {  // read & verify a random window
        const std::uint64_t offset = rng.Below(kMaxSize);
        const std::uint64_t len = 1 + rng.Below(2 * kBlockSize);
        std::vector<std::uint8_t> out(len, 0xEE);
        auto n = files.Read(id, offset, out);
        ASSERT_TRUE(n.ok());
        const std::uint64_t expect_n =
            offset >= m.size()
                ? 0
                : std::min<std::uint64_t>(len, m.size() - offset);
        ASSERT_EQ(*n, expect_n) << "short/long read at step " << step;
        for (std::uint64_t i = 0; i < expect_n; ++i) {
          ASSERT_EQ(out[i], m[offset + i])
              << "mismatch at byte " << offset + i << " step " << step;
        }
        break;
      }
      case 3: {  // resize
        const std::uint64_t size = rng.Below(kMaxSize);
        ASSERT_TRUE(files.Resize(id, size).ok());
        m.resize(size, 0);
        break;
      }
      case 4: {  // flush + drop all volatile state (durability check)
        ASSERT_TRUE(files.FlushAll().ok());
        files.Crash();
        break;
      }
    }
    // Attributes always agree with the model.
    auto attrs = files.GetAttributes(id);
    ASSERT_TRUE(attrs.ok());
    ASSERT_EQ(attrs->size, m.size()) << "size diverged at step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FileModelTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// --- crash atomicity --------------------------------------------------------------

class CrashAtomicityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrashAtomicityTest, RandomCrashNeverTearsACommit) {
  Rng rng(GetParam());
  core::FacilityConfig cfg;
  cfg.geometry.total_fragments = 8192;
  core::DistributedFileFacility facility(cfg);
  auto& txns = facility.transactions();

  // Base state, committed and flushed.
  auto t0 = txns.Begin(ProcessId{1});
  auto file = txns.TCreate(*t0, LockLevel::kPage, 4 * kBlockSize);
  std::vector<std::uint8_t> old_state(2 * kBlockSize);
  for (auto& b : old_state) b = static_cast<std::uint8_t>(rng.Next());
  ASSERT_TRUE(txns.TWrite(*t0, *file, 0, old_state).ok());
  ASSERT_TRUE(txns.End(*t0).ok());
  ASSERT_TRUE(facility.files().FlushAll().ok());

  // Arm a crash at a random main-disk write, then run an update txn.
  auto server = facility.disks().Get(DiskId{0});
  (*server)->SetFaultPlan(sim::DiskFaultPlan{
      .media_error_rate = 0,
      .crash_after_writes = static_cast<std::int64_t>(rng.Below(16))});
  std::vector<std::uint8_t> new_state(2 * kBlockSize);
  for (auto& b : new_state) b = static_cast<std::uint8_t>(rng.Next());
  auto t1 = txns.Begin(ProcessId{1});
  (void)txns.TWrite(*t1, *file, 0, new_state);
  // May die anywhere inside the commit or the write-behind it leaves.
  (void)txns.End(*t1);
  (void)txns.Checkpoint();
  (*server)->SetFaultPlan({});

  facility.CrashServers();
  ASSERT_TRUE(facility.RecoverServers().ok());

  std::vector<std::uint8_t> got(2 * kBlockSize);
  ASSERT_TRUE(facility.files().Read(*file, 0, got).ok());
  EXPECT_TRUE(got == old_state || got == new_state)
      << "torn state after crash+recovery";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashAtomicityTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88,
                                           99, 110));

}  // namespace
}  // namespace rhodos
