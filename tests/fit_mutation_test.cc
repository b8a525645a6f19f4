// Hostile file index tables (paper §5): the fragment and indirect-block
// bytes a crash or a damaged disk can leave behind. Every mutated image
// must load the way FileService::LoadTable loads one — ParseFitFragment,
// then ParseIndirectBlock for each indirect block it names — to an error
// or to a table that is consistent with itself: every run holds
// at least one block, Locate of every block lands in its run, and the
// table serializes and loads back equal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "file/file_index_table.h"

namespace rhodos::file {
namespace {

// Byte offsets of the fragment layout SerializeFragment writes.
constexpr std::size_t kDirectAt = 4 + 51;   // after magic and attributes
constexpr std::size_t kTotalAt = kDirectAt + 4;
constexpr std::size_t kRunsAt = kTotalAt + 4;
// Offsets inside a serialized run.
constexpr std::size_t kRunDisk = 0;
constexpr std::size_t kRunFirst = 4;
constexpr std::size_t kRunCount = 12;
constexpr std::size_t kRunFlags = 14;

constexpr std::uint32_t kU32Max = std::numeric_limits<std::uint32_t>::max();

// A table's on-disk image: its fragment, and each indirect block by the
// (disk, fragment) address the fragment names it with. An address nothing
// was written to reads as zeros, as an unwritten platter does.
struct Image {
  std::vector<std::uint8_t> fragment;
  std::map<std::pair<std::uint32_t, FragmentIndex>,
           std::vector<std::uint8_t>>
      blocks;
  std::size_t fragment_len = kFragmentSize;
};

Image Encode(const FileIndexTable& t) {
  Image img;
  std::vector<BlockDescriptor> refs;
  for (std::size_t i = 0; i < t.IndirectBlockCount(); ++i) {
    refs.push_back(BlockDescriptor{DiskId{1}, 5000 + i * kFragmentsPerBlock,
                                   1});
    img.blocks[{1, refs.back().first_fragment}] = t.SerializeIndirectBlock(i);
  }
  Serializer out;
  t.SerializeFragment(out, refs);
  img.fragment = out.buffer();
  img.fragment.resize(kFragmentSize, 0);
  return img;
}

// What FileService::LoadTable does with the bytes it reads.
Result<FitParseResult> Load(const Image& img) {
  auto parsed = ParseFitFragment(
      std::span<const std::uint8_t>{img.fragment}.first(img.fragment_len));
  if (!parsed.ok()) return parsed;
  const std::vector<std::uint8_t> zeros(kBlockSize, 0);
  for (const BlockDescriptor& ib : parsed->indirect_blocks) {
    const auto it = img.blocks.find({ib.disk.value, ib.first_fragment});
    RHODOS_RETURN_IF_ERROR(parsed->table.ParseIndirectBlock(
        it == img.blocks.end() ? zeros : it->second));
  }
  return parsed;
}

// Every block lands in a run that holds it, and the table loads back
// equal from its own serialization.
void ExpectSelfConsistent(const FileIndexTable& t) {
  std::uint64_t block = 0;
  for (const BlockDescriptor& run : t.runs()) {
    ASSERT_GT(run.contiguous_count, 0u) << "empty run at block " << block;
    for (std::uint32_t k = 0; k < run.contiguous_count; ++k, ++block) {
      const auto loc = t.Locate(block);
      ASSERT_TRUE(loc.ok()) << "block " << block;
      ASSERT_EQ(loc->disk, run.disk);
      ASSERT_EQ(loc->first_fragment,
                run.first_fragment + FragmentIndex{k} * kFragmentsPerBlock);
      ASSERT_EQ(loc->contiguous_blocks, run.contiguous_count - k);
      ASSERT_EQ(loc->flags, run.flags);
    }
  }
  EXPECT_EQ(block, t.BlockCount());
  EXPECT_FALSE(t.Locate(block).ok());
  auto again = Load(Encode(t));
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_EQ(again->table.attributes(), t.attributes());
  EXPECT_EQ(again->table.runs(), t.runs());
  EXPECT_EQ(again->table.BlockCount(), t.BlockCount());
}

// A table the writer builds: appended runs that never coalesce, then
// random shadow replacements, COW splits, shared-flag clears and
// truncations — every primitive that rewrites the run list. Sizes straddle
// the direct-run limit and the indirect-block boundaries.
FileIndexTable BuildTable(Rng& rng) {
  constexpr std::size_t kSizes[] = {0,  1,   7,   kDirectRuns - 1,
                                    kDirectRuns, kDirectRuns + 1,
                                    kDirectRuns + kRunsPerIndirectBlock,
                                    kDirectRuns + kRunsPerIndirectBlock + 1,
                                    700};
  FileIndexTable t;
  FileAttributes& a = t.attributes();
  a.size = rng.Next();
  a.created_time = static_cast<SimTime>(rng.Below(1'000'000));
  a.access_count = rng.Below(100);
  a.service_type = rng.Chance(0.5) ? ServiceType::kBasic
                                   : ServiceType::kTransaction;
  a.image_flags = static_cast<std::uint8_t>(rng.Below(3));
  a.origin = rng.Below(1000);
  const std::size_t runs = kSizes[rng.Below(std::size(kSizes))];
  FragmentIndex next = 1000;
  while (t.RunCount() < runs) {
    const auto count = static_cast<std::uint32_t>(rng.Between(1, 8));
    const std::uint16_t flags = rng.Chance(0.2) ? kRunShared : 0;
    EXPECT_TRUE(t.AppendRun(DiskId{static_cast<std::uint32_t>(rng.Below(2))},
                            next, count, flags)
                    .ok());
    next += FragmentIndex{count + 1} * kFragmentsPerBlock;  // leave a gap
  }
  const int edits = static_cast<int>(rng.Below(6));
  for (int e = 0; e < edits && t.BlockCount() > 0; ++e) {
    const std::uint64_t b = rng.Below(t.BlockCount());
    const std::uint32_t in_run = t.Locate(b)->contiguous_blocks;
    const auto n = static_cast<std::uint32_t>(rng.Between(1, in_run));
    switch (rng.Below(4)) {
      case 0:
        EXPECT_TRUE(t.ReplaceBlock(b, DiskId{0}, next).ok());
        break;
      case 1:
        EXPECT_TRUE(t.ReplaceRange(b, n, DiskId{1}, next).ok());
        break;
      case 2:
        EXPECT_TRUE(t.ClearSharedInRange(
                         b, static_cast<std::uint32_t>(std::min<std::uint64_t>(
                                n, t.BlockCount() - b)))
                        .ok());
        break;
      default:
        (void)t.TruncateBlocks(t.BlockCount() - rng.Below(3));
        break;
    }
    next += FragmentIndex{n + 1} * kFragmentsPerBlock;
    for (const BlockDescriptor& run : t.runs()) {
      EXPECT_GT(run.contiguous_count, 0u) << "a writer emitted an empty run";
    }
  }
  return t;
}

void PutU16(std::span<std::uint8_t> at, std::uint16_t v) {
  for (std::size_t i = 0; i < 2; ++i) {
    at[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}
void PutU32(std::span<std::uint8_t> at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    at[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}
void PutU64(std::span<std::uint8_t> at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    at[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// Overwrites one field of the serialized run at `run` with a boundary or
// random value.
void MutateRun(Rng& rng, std::span<std::uint8_t> run) {
  switch (rng.Below(4)) {
    case 0: {
      const std::uint16_t counts[] = {0, 1, 0xFFFF,
                                      static_cast<std::uint16_t>(rng.Next())};
      PutU16(run.subspan(kRunCount), counts[rng.Below(std::size(counts))]);
      break;
    }
    case 1: {
      const std::uint32_t disks[] = {0, 1, kU32Max,
                                     static_cast<std::uint32_t>(rng.Next())};
      PutU32(run.subspan(kRunDisk), disks[rng.Below(std::size(disks))]);
      break;
    }
    case 2: {
      const std::uint64_t firsts[] = {
          0, std::numeric_limits<std::uint64_t>::max(), rng.Next()};
      PutU64(run.subspan(kRunFirst), firsts[rng.Below(std::size(firsts))]);
      break;
    }
    default: {
      const std::uint16_t flags[] = {0, kRunShared, 0xFFFF};
      PutU16(run.subspan(kRunFlags), flags[rng.Below(std::size(flags))]);
      break;
    }
  }
}

std::uint32_t GetU32(std::span<const std::uint8_t> at) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) v |= std::uint32_t{at[i]} << (8 * i);
  return v;
}

// One seeded mutation of `img`, the image of `t`.
void Mutate(Rng& rng, const FileIndexTable& t, Image& img) {
  const std::size_t direct = std::min(t.RunCount(), kDirectRuns);
  const std::size_t refs_at = kRunsAt + direct * kRunBytes;
  const std::size_t used = refs_at + 4 + t.IndirectBlockCount() * kRunBytes;
  std::span<std::uint8_t> frag{img.fragment};
  switch (rng.Below(7)) {
    case 0: {  // the fragment's bytes, mostly inside what the writer wrote
      const int flips = static_cast<int>(rng.Between(1, 4));
      for (int i = 0; i < flips; ++i) {
        const std::size_t at =
            rng.Below(rng.Chance(0.9) ? used : kFragmentSize);
        frag[at] = static_cast<std::uint8_t>(rng.Next());
      }
      break;
    }
    case 1: {  // a header count at its bounds
      const std::uint32_t bounds[] = {
          0, 1, kDirectRuns - 1, kDirectRuns, kDirectRuns + 1,
          kIndirectRefs, kIndirectRefs + 1,
          static_cast<std::uint32_t>(kDirectRuns +
                                     kIndirectRefs * kRunsPerIndirectBlock),
          static_cast<std::uint32_t>(t.RunCount() - 1),
          static_cast<std::uint32_t>(t.RunCount() + 1),
          static_cast<std::uint32_t>(t.IndirectBlockCount() + 1), kU32Max};
      const std::size_t fields[] = {kDirectAt, kTotalAt, refs_at};
      PutU32(frag.subspan(fields[rng.Below(std::size(fields))]),
             bounds[rng.Below(std::size(bounds))]);
      break;
    }
    case 2:  // a field of a direct run
      if (direct > 0) {
        MutateRun(rng, frag.subspan(kRunsAt + rng.Below(direct) * kRunBytes,
                                    kRunBytes));
      }
      break;
    case 3:  // a field of an indirect block's run
      if (!img.blocks.empty()) {
        auto it = std::next(img.blocks.begin(),
                            static_cast<std::ptrdiff_t>(
                                rng.Below(img.blocks.size())));
        std::span<std::uint8_t> block{it->second};
        const std::uint64_t n = std::clamp<std::uint64_t>(
            GetU32(block), 1, kRunsPerIndirectBlock);
        MutateRun(rng, block.subspan(4 + rng.Below(n) * kRunBytes, kRunBytes));
      }
      break;
    case 4:  // an indirect block's run count
      if (!img.blocks.empty()) {
        auto it = std::next(img.blocks.begin(),
                            static_cast<std::ptrdiff_t>(
                                rng.Below(img.blocks.size())));
        std::span<std::uint8_t> block{it->second};
        const std::uint32_t n = GetU32(block);
        const std::uint32_t counts[] = {
            0, n - 1, n + 1, static_cast<std::uint32_t>(kRunsPerIndirectBlock),
            static_cast<std::uint32_t>(kRunsPerIndirectBlock + 1), kU32Max};
        PutU32(block, counts[rng.Below(std::size(counts))]);
      }
      break;
    case 5:  // an indirect-block reference: aliased, or a field at a bound
      if (t.IndirectBlockCount() > 0) {
        const std::size_t refs = t.IndirectBlockCount();
        std::span<std::uint8_t> ref = frag.subspan(
            refs_at + 4 + rng.Below(refs) * kRunBytes, kRunBytes);
        if (rng.Chance(0.5)) {
          const auto other = frag.subspan(
              refs_at + 4 + rng.Below(refs) * kRunBytes, kRunBytes);
          std::memmove(ref.data(), other.data(), kRunBytes);
        } else {
          MutateRun(rng, ref);
        }
      }
      break;
    default:  // a short read
      img.fragment_len = rng.Below(used + 1);
      break;
  }
}

TEST(FitMutationTest, AnEmptyRunIsRefused) {
  FileIndexTable t;
  for (std::size_t i = 0; i < kDirectRuns + 3; ++i) {
    ASSERT_TRUE(t.AppendRun(DiskId{0}, 1000 + i * 16, 2).ok());
  }
  const Image good = Encode(t);
  ASSERT_TRUE(Load(good).ok());

  Image direct = good;
  PutU16(std::span<std::uint8_t>{direct.fragment}.subspan(
             kRunsAt + 5 * kRunBytes + kRunCount),
         0);
  EXPECT_EQ(Load(direct).code(), ErrorCode::kMediaError);

  Image indirect = good;
  PutU16(std::span<std::uint8_t>{indirect.blocks.begin()->second}.subspan(
             4 + 1 * kRunBytes + kRunCount),
         0);
  EXPECT_EQ(Load(indirect).code(), ErrorCode::kMediaError);
}

TEST(FitMutationTest, AHeaderWhoseCountsDisagreeIsRefused) {
  FileIndexTable t;
  for (std::size_t i = 0; i < kDirectRuns + 40; ++i) {
    ASSERT_TRUE(t.AppendRun(DiskId{0}, 1000 + i * 16, 1).ok());
  }
  const Image good = Encode(t);
  ASSERT_TRUE(Load(good).ok());
  // Totals that need no indirect block, or two, beside a fragment that
  // names one; a total the direct runs alone exceed.
  for (const std::uint32_t total :
       {static_cast<std::uint32_t>(kDirectRuns - 1),
        static_cast<std::uint32_t>(kDirectRuns),
        static_cast<std::uint32_t>(kDirectRuns + kRunsPerIndirectBlock + 1)}) {
    Image img = good;
    PutU32(std::span<std::uint8_t>{img.fragment}.subspan(kTotalAt), total);
    EXPECT_EQ(Load(img).code(), ErrorCode::kMediaError) << total;
  }
  // Direct runs the header says the fragment does not hold.
  Image small = good;
  PutU32(std::span<std::uint8_t>{small.fragment}.subspan(kDirectAt),
         kDirectRuns - 1);
  EXPECT_EQ(Load(small).code(), ErrorCode::kMediaError);
  // Two indirect references where the total needs one.
  Image refs = good;
  PutU32(std::span<std::uint8_t>{refs.fragment}.subspan(
             kRunsAt + kDirectRuns * kRunBytes),
         2);
  EXPECT_EQ(Load(refs).code(), ErrorCode::kMediaError);
}

// A crash between an indirect block's in-place rewrite and its fragment's
// put leaves the old fragment beside the new runs. The total still names
// one indirect block, so the table loads with the runs the block holds.
TEST(FitMutationTest, AnOldFragmentBesideARewrittenIndirectBlockLoads) {
  FileIndexTable before;
  for (std::size_t i = 0; i < kDirectRuns + 40; ++i) {
    ASSERT_TRUE(before.AppendRun(DiskId{0}, 1000 + i * 16, 2).ok());
  }
  FileIndexTable after = before;
  // A remap of the last run's first block splits it in two.
  ASSERT_TRUE(after.ReplaceBlock(after.BlockCount() - 2, DiskId{1}, 9000).ok());
  ASSERT_EQ(after.RunCount(), before.RunCount() + 1);
  Image torn = Encode(before);
  torn.blocks = Encode(after).blocks;
  auto parsed = Load(torn);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed->table.runs(), after.runs());
  ExpectSelfConsistent(parsed->table);
}

class FitMutationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FitMutationProperty, EveryMutationIsRefusedOrSelfConsistent) {
  Rng rng(GetParam());
  int refused = 0;
  int loaded = 0;
  for (int round = 0; round < 40; ++round) {
    const FileIndexTable t = BuildTable(rng);
    const Image good = Encode(t);
    {
      auto back = Load(good);
      ASSERT_TRUE(back.ok()) << back.error().message;
      ASSERT_EQ(back->table.runs(), t.runs());
    }
    for (int m = 0; m < 25; ++m) {
      Image img = good;
      const int mutations = static_cast<int>(rng.Between(1, 3));
      for (int i = 0; i < mutations; ++i) Mutate(rng, t, img);
      auto parsed = Load(img);
      if (!parsed.ok()) {
        EXPECT_EQ(parsed.code(), ErrorCode::kMediaError)
            << parsed.error().message;
        ++refused;
        continue;
      }
      ++loaded;
      ExpectSelfConsistent(parsed->table);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "seed " << GetParam() << " round " << round << " mutation "
               << m;
      }
    }
  }
  // Both outcomes happen: the suite is not vacuous either way.
  EXPECT_GT(refused, 100);
  EXPECT_GT(loaded, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FitMutationProperty,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace rhodos::file
