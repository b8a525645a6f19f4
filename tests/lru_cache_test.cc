// Property test of the one LRU container (common/lru_cache.h) against a
// naive model: a vector in recency order plus a full scan. Every step of a
// seeded random sequence of inserts, touches, peeks, erases, file purges,
// victim queries and clears is followed by a check that the container's
// recency order, victim, per-file index and map order equal the model's.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/lru_cache.h"
#include "common/rng.h"

namespace rhodos {
namespace {

using Cache = BlockLruCache<int>;

struct Model {
  std::vector<BlockKey> order;  // front = most recent
  std::unordered_map<BlockKey, int, BlockKeyHash> values;
  // Same key history as the container's map: its iteration order is the
  // order ForEach must reproduce.
  std::unordered_map<BlockKey, int, BlockKeyHash> map_twin;

  void Touch(const BlockKey& k) {
    auto it = std::find(order.begin(), order.end(), k);
    order.erase(it);
    order.insert(order.begin(), k);
  }
  void Erase(const BlockKey& k) {
    order.erase(std::find(order.begin(), order.end(), k));
    values.erase(k);
    map_twin.erase(k);
  }
  template <typename Pred>
  const BlockKey* Victim(Pred pred) const {
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      if (pred(*it, values.at(*it))) return &*it;
    }
    return order.empty() ? nullptr : &order.back();
  }
  std::vector<std::uint64_t> Blocks(FileId file, std::uint64_t from) const {
    std::vector<std::uint64_t> out;
    for (const BlockKey& k : order) {
      if (k.file == file && k.block >= from) out.push_back(k.block);
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

constexpr std::uint64_t kFiles = 4;
constexpr std::uint64_t kBlocks = 12;

BlockKey RandomKey(Rng& rng) {
  return BlockKey{FileId{1 + rng.Below(kFiles)}, rng.Below(kBlocks)};
}

bool Even(const BlockKey&, int v) { return v % 2 == 0; }

// The container's recency order, most recent first, read through the
// public API only: repeatedly ask for the least recent key not yet seen.
std::vector<BlockKey> RecencyOrder(const Cache& cache) {
  std::vector<BlockKey> order;
  std::unordered_set<BlockKey, BlockKeyHash> seen;
  while (order.size() < cache.size()) {
    const BlockKey* k = cache.Victim(
        [&seen](const BlockKey& key, int) { return !seen.contains(key); });
    seen.insert(*k);
    order.push_back(*k);
  }
  std::reverse(order.begin(), order.end());
  return order;
}

void ExpectSame(const Cache& cache, const Model& model, std::uint64_t step) {
  ASSERT_EQ(cache.size(), model.values.size()) << "step " << step;
  ASSERT_EQ(RecencyOrder(cache), model.order) << "step " << step;

  const BlockKey* victim = cache.Victim(Even);
  const BlockKey* expected = model.Victim(Even);
  ASSERT_EQ(victim == nullptr, expected == nullptr) << "step " << step;
  if (victim != nullptr) {
    EXPECT_EQ(*victim, *expected) << "step " << step;
  }
  const BlockKey* lru = cache.Lru();
  ASSERT_EQ(lru == nullptr, model.order.empty()) << "step " << step;
  if (lru != nullptr) {
    EXPECT_EQ(*lru, model.order.back()) << "step " << step;
  }

  for (std::uint64_t f = 1; f <= kFiles; ++f) {
    for (const std::uint64_t from : {std::uint64_t{0}, kBlocks / 2}) {
      EXPECT_EQ(cache.index().Blocks(FileId{f}, from),
                model.Blocks(FileId{f}, from))
          << "step " << step << " file " << f << " from " << from;
    }
  }

  std::vector<BlockKey> visited;
  cache.ForEach([&](const BlockKey& k, int v) {
    EXPECT_EQ(v, model.values.at(k)) << "step " << step;
    visited.push_back(k);
  });
  std::vector<BlockKey> twin;
  for (const auto& [k, v] : model.map_twin) twin.push_back(k);
  EXPECT_EQ(visited, twin) << "step " << step << ": map order moved";
}

TEST(LruCacheProperty, MatchesNaiveModelUnderRandomOperations) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Cache cache;
    Model model;
    for (std::uint64_t step = 0; step < 600; ++step) {
      const BlockKey k = RandomKey(rng);
      const bool present = model.values.contains(k);
      switch (rng.Below(8)) {
        case 0:
        case 1:  // insert (an absent key), or touch a present one
          if (present) {
            ASSERT_NE(cache.Touch(k), nullptr);
            model.Touch(k);
          } else {
            const int v = static_cast<int>(rng.Below(1000));
            cache.Insert(k, v);
            model.order.insert(model.order.begin(), k);
            model.values[k] = v;
            model.map_twin.emplace(k, v);
          }
          break;
        case 2: {  // touch: a hit moves to the front, a miss changes nothing
          int* v = cache.Touch(k);
          ASSERT_EQ(v != nullptr, present);
          if (present) {
            EXPECT_EQ(*v, model.values[k]);
            model.Touch(k);
          }
          break;
        }
        case 3: {  // peek: never moves anything; a write through it sticks
          int* v = cache.Peek(k);
          ASSERT_EQ(v != nullptr, present);
          EXPECT_EQ(cache.Contains(k), present);
          if (present) {
            *v += 1;
            model.values[k] += 1;
            model.map_twin[k] += 1;
          }
          break;
        }
        case 4:  // erase, present or not
          cache.Erase(k);
          if (present) model.Erase(k);
          break;
        case 5: {  // purge one file's blocks from some block on
          const std::uint64_t from = rng.Below(kBlocks);
          for (const std::uint64_t b : cache.index().Blocks(k.file, from)) {
            cache.Erase(BlockKey{k.file, b});
          }
          for (const std::uint64_t b : model.Blocks(k.file, from)) {
            model.Erase(BlockKey{k.file, b});
          }
          break;
        }
        case 6: {  // evict the victim, as a cache under pressure would
          const BlockKey* victim = cache.Victim(Even);
          if (victim != nullptr) {
            const BlockKey gone = *victim;
            cache.Erase(*victim);  // may name its own recency slot
            model.Erase(gone);
          }
          break;
        }
        case 7:
          if (rng.Below(20) == 0) {
            cache.Clear();
            model.order.clear();
            model.values.clear();
            model.map_twin.clear();
          }
          break;
      }
      ExpectSame(cache, model, step);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(LruCacheProperty, VictimFallsBackToLeastRecentAndEmptyHasNone) {
  LruCache<std::uint64_t, bool> cache;
  const auto clean = [](std::uint64_t, bool dirty) { return !dirty; };
  EXPECT_EQ(cache.Victim(clean), nullptr);
  cache.Insert(1, /*dirty=*/true);
  cache.Insert(2, /*dirty=*/false);
  cache.Insert(3, /*dirty=*/true);
  EXPECT_EQ(*cache.Victim(clean), 2u) << "least recent clean entry";
  cache.Touch(2);
  *cache.Peek(2) = true;
  EXPECT_EQ(*cache.Victim(clean), 1u) << "all dirty: least recent entry";
  EXPECT_EQ(*cache.Peek(2), true);
}

}  // namespace
}  // namespace rhodos
