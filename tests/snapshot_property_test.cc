// Seeded property test for snapshots and clones (E23): a random interleaving
// of writes, snapshots, clone-writes, shrinks and deletes runs against an
// in-memory shadow model. The properties:
//
//   * every read of every live file is byte-identical to the model — in
//     particular a snapshot always reads exactly what its source held at
//     capture, no matter how the source or any clone was rewritten;
//   * writes and shrinks of a snapshot are refused and change nothing;
//   * a mid-run service crash (volatile share map and journal head lost,
//     stable region replayed) changes no observable content;
//   * the exhaustive structural audit stays clean throughout — every claim
//     matches the stored share counts exactly;
//   * deleting everything returns the volume to its starting free space
//     (less the journal's one-time region claim) with an empty share map:
//     no leaked blocks, no stale refcounts.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "file/file_service.h"
#include "file/fsck.h"

namespace rhodos::file {
namespace {

constexpr int kOps = 220;
constexpr std::size_t kMaxFiles = 10;
constexpr std::uint64_t kInitialBlocks = 4;

disk::DiskServerConfig DiskConfig() {
  disk::DiskServerConfig c;
  c.geometry.total_fragments = 8192;
  c.geometry.fragments_per_track = 32;
  c.cache_capacity_tracks = 16;
  return c;
}

FileServiceConfig ServiceConfig() {
  FileServiceConfig c;
  c.basic_write_policy = file::WritePolicy::kWriteThrough;
  return c;
}

struct ModelFile {
  FileId id{};
  std::vector<std::uint8_t> bytes;  // the shadow: exact expected content
  bool writable = true;             // false for snapshots
};

class SnapshotPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    disks_ = std::make_unique<disk::DiskRegistry>();
    disks_->AddDisk(DiskConfig(), &clock_);
    files_ =
        std::make_unique<FileService>(disks_.get(), &clock_, ServiceConfig());
  }

  void VerifyFile(const ModelFile& f, const std::string& context) {
    std::vector<std::uint8_t> out(f.bytes.size());
    auto n = files_->Read(f.id, 0, out);
    ASSERT_TRUE(n.ok()) << context << ": file " << f.id.value;
    ASSERT_EQ(*n, f.bytes.size()) << context << ": file " << f.id.value;
    EXPECT_EQ(out, f.bytes) << context << ": file " << f.id.value
                            << (f.writable ? " (writable)" : " (snapshot)");
  }

  AuditReport ExhaustiveAudit(const std::vector<ModelFile>& live) {
    std::vector<FileId> ids;
    for (const ModelFile& f : live) ids.push_back(f.id);
    std::vector<ReservedRegion> reserved;
    SnapJournal& j = files_->snap_journal();
    if (j.loaded()) {
      reserved.push_back(
          {j.RegionDisk(), j.RegionFirst(), j.RegionFragments()});
    }
    return file::AuditFiles(*files_, ids,
                            std::span<const ReservedRegion>(reserved),
                            /*exhaustive=*/true);
  }

  SimClock clock_;
  std::unique_ptr<disk::DiskRegistry> disks_;
  std::unique_ptr<FileService> files_;
};

TEST_P(SnapshotPropertyTest, RandomHistoryMatchesShadowModel) {
  Rng rng(GetParam());
  const std::uint64_t baseline_free = disks_->TotalFreeFragments();

  std::vector<ModelFile> live;
  for (int i = 0; i < 3; ++i) {
    auto id = files_->Create(ServiceType::kBasic, kInitialBlocks * kBlockSize);
    ASSERT_TRUE(id.ok());
    ModelFile f;
    f.id = *id;
    f.bytes.assign(kInitialBlocks * kBlockSize, 0);
    for (std::size_t b = 0; b < f.bytes.size(); ++b) {
      f.bytes[b] = static_cast<std::uint8_t>(i + b * 7);
    }
    ASSERT_TRUE(files_->Write(*id, 0, f.bytes).ok());
    live.push_back(std::move(f));
  }

  for (int op = 0; op < kOps; ++op) {
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                 " op=" + std::to_string(op));
    if (op == kOps / 2) {
      // Mid-run server loss: the share map and journal head are volatile;
      // the stable region must rebuild them without observable change.
      files_->Crash();
      ASSERT_TRUE(files_->RecoverSnapshots().ok());
    }

    const std::uint64_t kind = rng.Below(60);
    ModelFile& f = live[rng.Below(live.size())];
    if (kind < 30) {
      // Random write (rejected and inert on snapshots).
      const std::uint64_t size = f.bytes.size();
      const std::uint64_t off = rng.Below(size);
      const std::uint64_t len = 1 + rng.Below(size - off);
      std::vector<std::uint8_t> data(len);
      for (std::uint64_t i = 0; i < len; ++i) {
        data[i] = static_cast<std::uint8_t>(rng.Below(256));
      }
      auto n = files_->Write(f.id, off, data);
      if (f.writable) {
        ASSERT_TRUE(n.ok());
        ASSERT_EQ(*n, len);
        std::copy(data.begin(), data.end(), f.bytes.begin() + off);
      } else {
        EXPECT_EQ(n.code(), ErrorCode::kPermissionDenied);
      }
    } else if (kind < 40 && live.size() < kMaxFiles) {
      auto id = files_->Snapshot(f.id);
      ASSERT_TRUE(id.ok());
      live.push_back(ModelFile{*id, f.bytes, /*writable=*/false});
    } else if (kind < 50 && live.size() < kMaxFiles) {
      auto id = files_->Clone(f.id);
      ASSERT_TRUE(id.ok());
      live.push_back(ModelFile{*id, f.bytes, /*writable=*/true});
    } else if (kind < 56 && live.size() > 1) {
      const std::size_t victim = rng.Below(live.size());
      ASSERT_TRUE(files_->Delete(live[victim].id).ok());
      live.erase(live.begin() + victim);
    } else {
      // Shrink to a random non-zero block count (inert on snapshots).
      const std::uint64_t blocks = f.bytes.size() / kBlockSize;
      if (blocks <= 1) continue;
      const std::uint64_t keep = 1 + rng.Below(blocks - 1);
      const Status s = files_->Resize(f.id, keep * kBlockSize);
      if (f.writable) {
        ASSERT_TRUE(s.ok());
        f.bytes.resize(keep * kBlockSize);
      } else {
        EXPECT_EQ(s.code(), ErrorCode::kPermissionDenied);
      }
    }

    // Spot-check one random live file every few ops.
    if (op % 8 == 0) {
      VerifyFile(live[rng.Below(live.size())], "spot");
    }
  }

  // Every live file — snapshots included — matches the shadow exactly.
  for (const ModelFile& f : live) VerifyFile(f, "final");

  // The exhaustive audit reconciles every claim against the stored counts.
  const AuditReport report = ExhaustiveAudit(live);
  EXPECT_TRUE(report.clean())
      << report.issues.size() << " issues, first: "
      << (report.issues.empty() ? "" : report.issues.front().detail);

  // Tear everything down: no leaked blocks, no stale share counts.
  for (const ModelFile& f : live) {
    ASSERT_TRUE(files_->Delete(f.id).ok()) << "file " << f.id.value;
  }
  live.clear();
  EXPECT_EQ(files_->SharedBlockCount(), 0u);
  const AuditReport empty = ExhaustiveAudit(live);
  EXPECT_TRUE(empty.clean())
      << empty.issues.size() << " issues, first: "
      << (empty.issues.empty() ? "" : empty.issues.front().detail);
  SnapJournal& j = files_->snap_journal();
  const std::uint64_t journal_claim = j.loaded() ? j.RegionFragments() : 0;
  EXPECT_EQ(disks_->TotalFreeFragments(), baseline_free - journal_claim);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotPropertyTest,
                         ::testing::Values(1, 2, 3, 7, 11));

}  // namespace
}  // namespace rhodos::file
