// Unit tests for the simulated disk: cost model, reference counting,
// continuation reads, fault injection, and the sparse platter against a
// dense reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "sim/disk_model.h"

namespace rhodos::sim {
namespace {

DiskGeometry SmallGeometry() {
  DiskGeometry g;
  g.total_fragments = 256;
  g.fragments_per_track = 16;
  return g;
}

TEST(DiskModelTest, ReadWriteRoundTrip) {
  SimClock clock;
  DiskModel disk(SmallGeometry(), &clock);
  std::vector<std::uint8_t> out(kFragmentSize * 2);
  std::vector<std::uint8_t> in(kFragmentSize * 2, 0xAB);
  ASSERT_TRUE(disk.WriteFragments(10, 2, in).ok());
  ASSERT_TRUE(disk.ReadFragments(10, 2, out).ok());
  EXPECT_EQ(out, in);
}

TEST(DiskModelTest, OneCallIsOneReference) {
  SimClock clock;
  DiskModel disk(SmallGeometry(), &clock);
  std::vector<std::uint8_t> buf(kFragmentSize * 8, 1);
  ASSERT_TRUE(disk.WriteFragments(0, 8, buf).ok());
  EXPECT_EQ(disk.stats().write_references, 1u);
  EXPECT_EQ(disk.stats().fragments_written, 8u);
  ASSERT_TRUE(disk.ReadFragments(0, 8, buf).ok());
  EXPECT_EQ(disk.stats().read_references, 1u);
}

TEST(DiskModelTest, ContinuationIsNotAReference) {
  SimClock clock;
  DiskModel disk(SmallGeometry(), &clock);
  std::vector<std::uint8_t> buf(kFragmentSize);
  ASSERT_TRUE(disk.ReadFragments(0, 1, buf).ok());
  const auto refs = disk.stats().read_references;
  const auto time = disk.stats().time_charged;
  ASSERT_TRUE(disk.ReadFragments(1, 1, buf, /*charge_seek=*/false).ok());
  EXPECT_EQ(disk.stats().read_references, refs);  // continuation
  // Only transfer time accrues, no seek or rotation.
  EXPECT_EQ(disk.stats().time_charged - time,
            SmallGeometry().transfer_per_fragment);
}

TEST(DiskModelTest, SeekCostGrowsWithDistance) {
  SimClock clock;
  DiskModel disk(SmallGeometry(), &clock);
  std::vector<std::uint8_t> buf(kFragmentSize);
  ASSERT_TRUE(disk.ReadFragments(0, 1, buf).ok());
  const SimTime near_start = clock.Now();
  ASSERT_TRUE(disk.ReadFragments(16, 1, buf).ok());  // next track
  const SimTime near_cost = clock.Now() - near_start;
  ASSERT_TRUE(disk.ReadFragments(0, 1, buf).ok());  // reposition
  const SimTime far_start = clock.Now();
  ASSERT_TRUE(disk.ReadFragments(240, 1, buf).ok());  // far track
  const SimTime far_cost = clock.Now() - far_start;
  EXPECT_GT(far_cost, near_cost);
  EXPECT_GT(disk.stats().tracks_seeked, 0u);
}

TEST(DiskModelTest, OutOfRangeRejected) {
  SimClock clock;
  DiskModel disk(SmallGeometry(), &clock);
  std::vector<std::uint8_t> buf(kFragmentSize * 2);
  EXPECT_EQ(disk.ReadFragments(255, 2, buf).code(), ErrorCode::kBadAddress);
  EXPECT_EQ(disk.ReadFragments(1000, 1, buf).code(), ErrorCode::kBadAddress);
  EXPECT_EQ(disk.ReadFragments(0, 0, buf).code(),
            ErrorCode::kInvalidArgument);
}

TEST(DiskModelTest, ShortBufferRejected) {
  SimClock clock;
  DiskModel disk(SmallGeometry(), &clock);
  std::vector<std::uint8_t> buf(kFragmentSize - 1);
  EXPECT_EQ(disk.ReadFragments(0, 1, buf).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(disk.WriteFragments(0, 1, buf).code(),
            ErrorCode::kInvalidArgument);
}

TEST(DiskModelTest, MediaErrorsFireAtConfiguredRate) {
  SimClock clock;
  DiskModel disk(SmallGeometry(), &clock, /*fault_seed=*/3);
  disk.SetFaultPlan(DiskFaultPlan{.media_error_rate = 0.5});
  std::vector<std::uint8_t> buf(kFragmentSize);
  int errors = 0;
  for (int i = 0; i < 200; ++i) {
    if (!disk.ReadFragments(0, 1, buf).ok()) ++errors;
  }
  EXPECT_GT(errors, 50);
  EXPECT_LT(errors, 150);
}

TEST(DiskModelTest, CrashAfterNWritesTearsTheNthWrite) {
  SimClock clock;
  DiskModel disk(SmallGeometry(), &clock, /*fault_seed=*/11);
  disk.SetFaultPlan(DiskFaultPlan{.crash_after_writes = 2});
  std::vector<std::uint8_t> data(kFragmentSize * 4, 0xCD);
  ASSERT_TRUE(disk.WriteFragments(0, 4, data).ok());
  ASSERT_TRUE(disk.WriteFragments(4, 4, data).ok());
  // The third write reference dies mid-flight.
  auto st = disk.WriteFragments(8, 4, data);
  EXPECT_EQ(st.code(), ErrorCode::kDiskCrashed);
  EXPECT_TRUE(disk.crashed());
  // Everything fails until recovery; the platter survives.
  std::vector<std::uint8_t> out(kFragmentSize * 4);
  EXPECT_EQ(disk.ReadFragments(0, 4, out).code(), ErrorCode::kDiskCrashed);
  disk.Recover();
  ASSERT_TRUE(disk.ReadFragments(0, 4, out).ok());
  EXPECT_EQ(out, data);  // pre-crash writes intact
}

// The fault model the one-fragment table stores rest on: a torn write
// persists a strict prefix of its fragments, so a torn one-fragment write
// leaves the old bytes, whatever the fault seed draws.
TEST(DiskModelTest, TornWritePersistsAStrictPrefix) {
  const std::vector<std::uint8_t> old_bytes(kFragmentSize * 4, 0x11);
  const std::vector<std::uint8_t> new_bytes(kFragmentSize * 4, 0x22);
  std::set<std::uint32_t> prefixes;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    for (const std::uint32_t count : {1u, 4u}) {
      SimClock clock;
      DiskModel disk(SmallGeometry(), &clock, seed);
      ASSERT_TRUE(disk.WriteFragments(8, count, old_bytes).ok());
      disk.SetFaultPlan(DiskFaultPlan{.crash_after_writes = 0});
      EXPECT_EQ(disk.WriteFragments(8, count, new_bytes).code(),
                ErrorCode::kDiskCrashed);
      std::uint32_t persisted = 0;
      while (persisted < count &&
             disk.RawFragment(8 + persisted)[0] == new_bytes[0]) {
        ++persisted;
      }
      for (std::uint32_t f = 0; f < count; ++f) {
        const auto raw = disk.RawFragment(8 + f);
        const std::uint8_t want = f < persisted ? 0x22 : 0x11;
        EXPECT_TRUE(std::all_of(raw.begin(), raw.end(),
                                [want](std::uint8_t b) { return b == want; }))
            << "seed " << seed << ", fragment " << f << " of " << count;
      }
      EXPECT_LT(persisted, count) << "seed " << seed;
      if (count > 1) prefixes.insert(persisted);
    }
  }
  // Over 64 seeds the 4-fragment tear lands at more than one point.
  EXPECT_GT(prefixes.size(), 1u);
}

TEST(DiskModelTest, RawAccessBypassesCostModel) {
  SimClock clock;
  DiskModel disk(SmallGeometry(), &clock);
  std::vector<std::uint8_t> in(kFragmentSize, 0x5A);
  disk.RawOverwrite(7, in);
  EXPECT_EQ(disk.stats().TotalReferences(), 0u);
  auto raw = disk.RawFragment(7);
  EXPECT_EQ(raw[0], 0x5A);
  EXPECT_EQ(clock.Now(), 0);
}

// --- sparse platter --------------------------------------------------------

TEST(DiskModelTest, FreshModelHoldsNoPlatterAndOneWriteOneChunk) {
  DiskGeometry g;
  g.total_fragments = (std::uint64_t{1} << 30) / kFragmentSize;  // 1 GiB
  DiskModel disk(g, nullptr);
  EXPECT_EQ(disk.ResidentBytes(), 0u);
  // Reads of never-written fragments are zeros and allocate nothing.
  std::vector<std::uint8_t> out(kFragmentSize * 3, 0xEE);
  ASSERT_TRUE(disk.ReadFragments(g.total_fragments - 3, 3, out).ok());
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_EQ(disk.RawFragment(12345)[0], 0);
  EXPECT_EQ(disk.ResidentBytes(), 0u);

  const std::vector<std::uint8_t> in(kFragmentSize, 0x3C);
  ASSERT_TRUE(disk.WriteFragments(4097, 1, in).ok());
  EXPECT_EQ(disk.ResidentBytes(), kFragmentsPerBlock * kFragmentSize);
  // Another fragment of the same chunk allocates nothing more.
  disk.RawOverwrite(4096, in);
  EXPECT_EQ(disk.ResidentBytes(), kFragmentsPerBlock * kFragmentSize);
  // A write straddling a chunk boundary allocates both chunks.
  const std::vector<std::uint8_t> two(kFragmentSize * 2, 0x4D);
  ASSERT_TRUE(disk.WriteFragments(8 * kFragmentsPerBlock - 1, 2, two).ok());
  EXPECT_EQ(disk.ResidentBytes(), 3 * kFragmentsPerBlock * kFragmentSize);
}

// Seeded random operations against a dense byte-vector platter: every
// read, and the raw view of every fragment at the end, must agree.
TEST(DiskModelTest, SparsePlatterMatchesADenseReference) {
  DiskGeometry g;
  g.total_fragments = 203;  // not a whole number of chunks
  g.fragments_per_track = 16;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    DiskModel disk(g, nullptr, /*fault_seed=*/seed);
    // The reference replays the model's fault draws: a torn write keeps
    // the prefix the model's own fault Rng picks.
    Rng faults(seed);
    std::vector<std::uint8_t> dense(g.total_fragments * kFragmentSize, 0);
    std::set<std::uint64_t> chunks;  // chunks some write reached
    auto wrote = [&chunks](FragmentIndex from, std::uint64_t fragments) {
      for (FragmentIndex f = from; f < from + fragments; ++f) {
        chunks.insert(f / kFragmentsPerBlock);
      }
    };
    std::vector<std::uint8_t> buf;
    for (int op = 0; op < 300; ++op) {
      const std::uint64_t kind = rng.Below(10);
      const auto count = static_cast<std::uint32_t>(1 + rng.Below(9));
      const FragmentIndex first = rng.Below(g.total_fragments - count + 1);
      const std::size_t at = first * kFragmentSize;
      const std::size_t bytes = std::size_t{count} * kFragmentSize;
      if (kind < 4) {
        buf.assign(bytes, 0xAA);
        ASSERT_TRUE(disk.ReadFragments(first, count, buf).ok());
        ASSERT_EQ(0, std::memcmp(buf.data(), dense.data() + at, bytes))
            << "read [" << first << ", +" << count << ")";
      } else if (kind < 8) {
        buf.resize(bytes);
        for (auto& b : buf) b = static_cast<std::uint8_t>(rng.Below(256));
        if (kind == 7 && rng.Chance(0.3)) {
          disk.SetFaultPlan(DiskFaultPlan{
              .crash_after_writes = static_cast<std::int64_t>(rng.Below(2))});
        }
        const Status st = disk.WriteFragments(first, count, buf);
        if (st.ok()) {
          std::memcpy(dense.data() + at, buf.data(), bytes);
          wrote(first, count);
        } else {
          // Torn: a prefix of the fault Rng's choosing persisted.
          ASSERT_EQ(st.code(), ErrorCode::kDiskCrashed);
          const std::uint64_t persisted = faults.Below(count);
          std::memcpy(dense.data() + at, buf.data(),
                      persisted * kFragmentSize);
          wrote(first, persisted);
          disk.Recover();
        }
      } else if (kind == 8) {
        buf.resize(kFragmentSize);
        for (auto& b : buf) b = static_cast<std::uint8_t>(rng.Below(256));
        // A raw overwrite may be shorter than a fragment.
        const std::size_t len = 1 + rng.Below(kFragmentSize);
        disk.RawOverwrite(first, std::span(buf).first(len));
        std::memcpy(dense.data() + at, buf.data(), len);
        wrote(first, 1);
      } else {
        disk.Crash();
        buf.resize(kFragmentSize);
        EXPECT_EQ(disk.ReadFragments(first, 1, buf).code(),
                  ErrorCode::kDiskCrashed);
        disk.Recover();
      }
    }
    for (FragmentIndex f = 0; f < g.total_fragments; ++f) {
      const auto raw = disk.RawFragment(f);
      ASSERT_EQ(0, std::memcmp(raw.data(), dense.data() + f * kFragmentSize,
                               kFragmentSize))
          << "fragment " << f;
    }
    EXPECT_EQ(disk.ResidentBytes(), chunks.size() * kBlockSize);
  }
}

}  // namespace
}  // namespace rhodos::sim
