#include "pclust/util/key_set.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>

#include "pclust/util/rng.hpp"

namespace pclust::util {
namespace {

/// Inserts @p key into both sets and checks they agree on it.
void insert_both(KeySet& set, std::unordered_set<std::uint64_t>& want,
                 std::uint64_t key) {
  ASSERT_EQ(set.insert(key), want.insert(key).second) << "key=" << key;
  ASSERT_EQ(set.size(), want.size()) << "key=" << key;
}

TEST(KeySet, MatchesUnorderedSetOnRandomKeysWithRepeats) {
  // Pair keys (a << 32 | b) over a small id range repeat often, as a pair
  // stream's do; the set grows through several doublings.
  Xoshiro256 rng(2025);
  KeySet set;
  std::unordered_set<std::uint64_t> want;
  for (int k = 0; k < 200000; ++k) {
    const std::uint64_t a = rng.below(600);
    const std::uint64_t b = rng.below(600);
    insert_both(set, want, (a << 32) | b);
  }
  EXPECT_GT(want.size(), 100000u);
  // Every key inserted reads as present, and a key never inserted as new.
  for (const std::uint64_t key : want) EXPECT_FALSE(set.insert(key));
  EXPECT_TRUE(set.insert(std::uint64_t{1} << 63));
}

TEST(KeySet, FullRangeKeysAndKeyZero) {
  // 0 marks an empty slot inside the table, so it is kept aside: it must
  // still count once, and its repeats must read as duplicates.
  Xoshiro256 rng(7);
  KeySet set;
  std::unordered_set<std::uint64_t> want;
  insert_both(set, want, 0);
  insert_both(set, want, 0);
  for (int k = 0; k < 5000; ++k) {
    insert_both(set, want, rng());
    if (k % 1000 == 0) insert_both(set, want, 0);
  }
  insert_both(set, want, ~std::uint64_t{0});
  insert_both(set, want, ~std::uint64_t{0});
}

TEST(KeySet, FootprintIsOneFlatArrayAtMostHalfFull) {
  KeySet set;
  EXPECT_EQ(set.bytes(), 0u);
  for (std::uint64_t key = 1; key <= 1000; ++key) set.insert(key);
  // 1000 keys need 2048 slots of 8 bytes at load <= 1/2: 16-33 B a key,
  // where a node-based unordered_set holds about 35.
  EXPECT_EQ(set.bytes(), 2048u * sizeof(std::uint64_t));
  EXPECT_EQ(set.size(), 1000u);
}

}  // namespace
}  // namespace pclust::util
