// Hostile input for the stable-region frame codec: valid intention-log and
// snapshot-journal regions are given seeded bit flips, truncations and
// rewritten length fields on the stable platter, then scanned. Every scan
// must return (the sanitizer builds check it stays in bounds) and replay
// only a prefix of what was written, record for record.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "disk/disk_registry.h"
#include "disk/disk_server.h"
#include "disk/stable_frame.h"
#include "file/snap_journal.h"
#include "txn/txn_log.h"

namespace rhodos {
namespace {

constexpr int kTrials = 300;

std::vector<std::uint8_t> ReadRaw(const sim::DiskModel& device,
                                  FragmentIndex first, std::uint64_t count) {
  std::vector<std::uint8_t> out;
  for (FragmentIndex f = first; f < first + count; ++f) {
    const auto raw = device.RawFragment(f);
    out.insert(out.end(), raw.begin(), raw.end());
  }
  return out;
}

void WriteRaw(sim::DiskModel& device, FragmentIndex first,
              std::span<const std::uint8_t> image) {
  for (std::uint64_t i = 0; i * kFragmentSize < image.size(); ++i) {
    device.RawOverwrite(first + i, image.subspan(i * kFragmentSize,
                                                 kFragmentSize));
  }
}

// Where the written frames sit in a region image.
struct Layout {
  std::uint64_t used = 0;              // bytes the frames cover
  std::vector<std::uint64_t> headers;  // offsets of frame headers
};

// One seeded mutation inside [0, layout.used): a bit flip; a truncation
// (everything from a point on zeroed, as a torn force leaves it); or a
// frame's length field rewritten to a small, nearby, huge or random value.
void Mutate(Rng& rng, std::vector<std::uint8_t>& image, const Layout& layout) {
  switch (rng.Below(3)) {
    case 0:
      image[rng.Below(layout.used)] ^=
          static_cast<std::uint8_t>(1u << rng.Below(8));
      return;
    case 1:
      std::fill(image.begin() + static_cast<std::ptrdiff_t>(
                                    rng.Below(layout.used)),
                image.begin() + static_cast<std::ptrdiff_t>(layout.used), 0);
      return;
    default: {
      const std::uint64_t at =
          layout.headers[rng.Below(layout.headers.size())] + 4;
      std::uint32_t len = 0;
      for (int i = 0; i < 4; ++i) {
        len |= static_cast<std::uint32_t>(image[at + i]) << (8 * i);
      }
      switch (rng.Below(4)) {
        case 0:
          len = static_cast<std::uint32_t>(rng.Below(64));
          break;
        case 1:
          len += static_cast<std::uint32_t>(rng.Between(1, 32)) - 16;
          break;
        case 2:
          len = 0xFFFFFFFFu - static_cast<std::uint32_t>(rng.Below(16));
          break;
        default:
          len = static_cast<std::uint32_t>(rng.Next());
          break;
      }
      for (int i = 0; i < 4; ++i) {
        image[at + i] = static_cast<std::uint8_t>(len >> (8 * i));
      }
      return;
    }
  }
}

std::vector<std::uint8_t> Bytes(const txn::IntentionRecord& r) {
  Serializer out;
  txn::SerializeIntention(out, r);
  return std::move(out).Take();
}

std::vector<std::uint8_t> Bytes(const file::SnapOp& op) {
  Serializer out;
  file::SerializeSnapOp(out, op);
  return std::move(out).Take();
}

TEST(StableFrameMutationTest, IntentionLogReplaysOnlyAPrefix) {
  constexpr std::uint64_t kFragments = 8;
  disk::DiskServerConfig config;
  config.geometry.total_fragments = 1024;
  config.geometry.fragments_per_track = 16;
  SimClock clock;
  disk::DiskServer server(DiskId{0}, config, &clock);
  const FragmentIndex first = *server.AllocateFragments(kFragments);

  // Five batches of one to three records of assorted sizes, one force each.
  std::vector<std::vector<std::uint8_t>> written;
  Layout layout;
  {
    txn::TxnLog log(&server, first, kFragments);
    Rng rng(7);
    for (int b = 0; b < 5; ++b) {
      txn::TxnLog::BatchFramePayload batch;
      layout.headers.push_back(layout.used);
      std::uint64_t record_at = layout.used + 16;
      for (int i = 0; i <= b % 3; ++i) {
        txn::IntentionRecord r;
        r.kind = i == b % 3 ? txn::IntentionKind::kStatus
                            : txn::IntentionKind::kRedoRange;
        r.txn = TxnId{static_cast<std::uint64_t>(b + 1)};
        r.file = FileId{4};
        r.offset = rng.Below(1 << 20);
        r.status = txn::TxnStatus::kCommit;
        r.data.assign(rng.Below(700), static_cast<std::uint8_t>(b * 16 + i));
        const std::size_t before = batch.payload.size();
        txn::AppendRecordFrame(batch.payload, r, log.generation());
        layout.headers.push_back(record_at);
        record_at += batch.payload.size() - before;
        ++batch.records;
        written.push_back(Bytes(r));
      }
      ASSERT_TRUE(log.AppendFrames({&batch, 1}).ok());
      layout.used = log.BytesUsed();
    }
  }
  const std::vector<std::uint8_t> pristine =
      ReadRaw(server.stable_device(), first, kFragments);

  Rng rng(0x5EED);
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE(trial);
    std::vector<std::uint8_t> image = pristine;
    Mutate(rng, image, layout);
    WriteRaw(server.stable_device(), first, image);

    txn::TxnLog log(&server, first, kFragments);
    const auto audit = log.Audit();
    ASSERT_TRUE(audit.ok());
    std::vector<std::vector<std::uint8_t>> seen;
    ASSERT_TRUE(log.Scan([&](const txn::IntentionRecord& r) {
      seen.push_back(Bytes(r));
    }).ok());
    ASSERT_LE(seen.size(), written.size());
    for (std::size_t i = 0; i < seen.size(); ++i) {
      ASSERT_EQ(seen[i], written[i]) << "record " << i;
    }
    EXPECT_EQ(audit->records, seen.size());
    EXPECT_LE(audit->bytes_valid, layout.used);
    // The adopted log takes appends after whatever the scan kept.
    txn::IntentionRecord next;
    next.kind = txn::IntentionKind::kBegin;
    next.txn = TxnId{99};
    EXPECT_TRUE(log.Append(next).ok());
  }
}

TEST(StableFrameMutationTest, SnapshotJournalReplaysOnlyAPrefix) {
  // Two-fragment checkpoint slots ahead of a twelve-fragment log.
  constexpr std::uint64_t kRegion = 16;
  disk::DiskServerConfig config;
  config.geometry.total_fragments = 2048;
  config.geometry.fragments_per_track = 32;
  SimClock clock;
  disk::DiskRegistry disks;
  disks.AddDisk(config, &clock);
  disk::DiskServer& server = **disks.Get(DiskId{0});

  // The log as written: each op record, and each done record as the seq it
  // closes (op bytes empty).
  struct Event {
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> op;
  };
  std::vector<Event> written;
  Layout slot;  // checkpoint slot A: one frame
  Layout log;
  FragmentIndex region_first = 0;
  {
    file::SnapJournal journal(&disks, kRegion, 0);
    ASSERT_TRUE(journal.Ensure().ok());
    region_first = journal.RegionFirst();
    Rng rng(11);
    for (int i = 0; i < 16; ++i) {
      file::SnapOp op;
      op.kind = static_cast<file::SnapOpKind>(1 + i % 3);
      op.file = FileId{static_cast<std::uint64_t>(30 + i)};
      op.first_block = rng.Below(64);
      op.block_count = static_cast<std::uint32_t>(rng.Between(1, 8));
      for (std::uint64_t e = rng.Below(4); e > 0; --e) {
        op.ref_edits.push_back(
            {DiskId{0}, 256 + 4 * rng.Below(64), 1,
             static_cast<std::uint32_t>(rng.Between(2, 5))});
      }
      const auto seq = journal.LogOp(op);
      ASSERT_TRUE(seq.ok());
      log.headers.push_back(log.used);
      log.used += disk::FrameBytes(1 + Bytes(op).size());
      written.push_back({*seq, Bytes(op)});
      if (i % 3 != 2) {
        ASSERT_TRUE(journal.LogDone(*seq).ok());
        log.headers.push_back(log.used);
        log.used += disk::FrameBytes(9);
        written.push_back({*seq, {}});
      }
    }
    Serializer empty_checkpoint;
    empty_checkpoint.U64(1);
    file::ShareMap{}.Serialize(empty_checkpoint);
    slot.used = disk::FrameBytes(empty_checkpoint.size());
    slot.headers.push_back(0);
  }
  const std::uint64_t log_offset = 2 * (kRegion / 8) * kFragmentSize;
  const std::vector<std::uint8_t> pristine =
      ReadRaw(server.stable_device(), region_first, kRegion);

  Rng rng(0xFACE);
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE(trial);
    std::vector<std::uint8_t> image = pristine;
    // Mostly the log; now and then the checkpoint.
    if (rng.Below(5) == 0) {
      Mutate(rng, image, slot);
    } else {
      std::vector<std::uint8_t> area(
          image.begin() + static_cast<std::ptrdiff_t>(log_offset),
          image.end());
      Mutate(rng, area, log);
      std::copy(area.begin(), area.end(),
                image.begin() + static_cast<std::ptrdiff_t>(log_offset));
    }
    WriteRaw(server.stable_device(), region_first, image);

    file::SnapJournal journal(&disks, kRegion, 0);
    ASSERT_TRUE(journal.Probe().ok());
    ASSERT_TRUE(journal.Ensure().ok());
    const std::uint64_t replayed = journal.stats().replayed_ops;
    const std::vector<file::SnapOp> pending = journal.TakePending();

    // Some prefix of the written log must explain both the ops replayed
    // and the ops left pending, byte for byte.
    bool explained = false;
    for (std::size_t k = 0; k <= written.size() && !explained; ++k) {
      std::uint64_t ops = 0;
      std::vector<std::vector<std::uint8_t>> open;
      std::vector<std::uint64_t> open_seqs;
      for (std::size_t i = 0; i < k; ++i) {
        if (!written[i].op.empty()) {
          ++ops;
          open.push_back(written[i].op);
          open_seqs.push_back(written[i].seq);
        } else {
          const auto at = std::find(open_seqs.begin(), open_seqs.end(),
                                    written[i].seq);
          open.erase(open.begin() + (at - open_seqs.begin()));
          open_seqs.erase(at);
        }
      }
      if (ops != replayed || open.size() != pending.size()) continue;
      explained = true;
      for (std::size_t i = 0; i < open.size(); ++i) {
        explained = explained && Bytes(pending[i]) == open[i];
      }
    }
    EXPECT_TRUE(explained) << replayed << " ops replayed, " << pending.size()
                           << " pending";
  }
}

}  // namespace
}  // namespace rhodos
