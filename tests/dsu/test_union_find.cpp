#include "pclust/dsu/union_find.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>

namespace pclust::dsu {
namespace {

TEST(UnionFind, InitiallySingletons) {
  UnionFind uf(5);
  EXPECT_EQ(uf.set_count(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(uf.find(i), i);
    EXPECT_EQ(uf.set_size(i), 1u);
  }
}

TEST(UnionFind, MergeReturnsWhetherDistinct) {
  UnionFind uf(4);
  EXPECT_TRUE(uf.merge(0, 1));
  EXPECT_FALSE(uf.merge(1, 0));
  EXPECT_TRUE(uf.merge(2, 3));
  EXPECT_TRUE(uf.merge(0, 3));
  EXPECT_FALSE(uf.merge(1, 2));
  EXPECT_EQ(uf.set_count(), 1u);
  EXPECT_EQ(uf.set_size(0), 4u);
}

TEST(UnionFind, FindIsIdempotent) {
  UnionFind uf(10);
  uf.merge(1, 2);
  uf.merge(2, 3);
  const auto r = uf.find(3);
  EXPECT_EQ(uf.find(3), r);
  EXPECT_EQ(uf.find(r), r);
}

TEST(UnionFind, TransitiveClosure) {
  UnionFind uf(6);
  uf.merge(0, 1);
  uf.merge(2, 3);
  EXPECT_FALSE(uf.same(1, 3));
  uf.merge(1, 2);
  EXPECT_TRUE(uf.same(0, 3));
  EXPECT_FALSE(uf.same(0, 4));
}

TEST(UnionFind, ExtractSetsOrderedBySize) {
  UnionFind uf(7);
  uf.merge(0, 1);
  uf.merge(1, 2);  // {0,1,2}
  uf.merge(3, 4);  // {3,4}
  const auto sets = uf.extract_sets();
  ASSERT_EQ(sets.size(), 4u);
  EXPECT_EQ(sets[0].size(), 3u);
  EXPECT_EQ(sets[1].size(), 2u);
  EXPECT_EQ(sets[2].size(), 1u);
  // Members sorted within each set (insertion order by construction).
  EXPECT_EQ(sets[0], (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(UnionFind, ExtractSetsMinSizeFilter) {
  UnionFind uf(7);
  uf.merge(0, 1);
  uf.merge(1, 2);
  uf.merge(3, 4);
  const auto sets = uf.extract_sets(3);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].size(), 3u);
}

TEST(UnionFind, SizesAlwaysSumToN) {
  std::mt19937 gen(99);
  UnionFind uf(200);
  for (int step = 0; step < 300; ++step) {
    uf.merge(gen() % 200, gen() % 200);
    const auto sets = uf.extract_sets();
    std::size_t total = 0;
    for (const auto& s : sets) total += s.size();
    ASSERT_EQ(total, 200u);
    ASSERT_EQ(sets.size(), uf.set_count());
  }
}

TEST(UnionFind, MergeOrderDoesNotChangePartition) {
  // Same edge set applied in two different orders yields the same partition.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> edges = {
      {0, 5}, {1, 6}, {2, 7}, {5, 6}, {8, 9}, {3, 8}};
  UnionFind a(10), b(10);
  for (auto [x, y] : edges) a.merge(x, y);
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    b.merge(it->first, it->second);
  }
  for (std::uint32_t x = 0; x < 10; ++x) {
    for (std::uint32_t y = 0; y < 10; ++y) {
      EXPECT_EQ(a.same(x, y), b.same(x, y)) << x << "," << y;
    }
  }
}

TEST(UnionFind, ResetClears) {
  UnionFind uf(3);
  uf.merge(0, 1);
  uf.reset(4);
  EXPECT_EQ(uf.set_count(), 4u);
  EXPECT_FALSE(uf.same(0, 1));
}

TEST(UnionFind, EmptyExtract) {
  UnionFind uf(0);
  EXPECT_TRUE(uf.extract_sets().empty());
  EXPECT_EQ(uf.set_count(), 0u);
}

TEST(UnionFind, RestoreRoundTripsThePartition) {
  UnionFind original(8);
  original.merge(0, 3);
  original.merge(3, 5);
  original.merge(1, 7);

  UnionFind restored;
  restored.restore(original.parents());
  EXPECT_EQ(restored.size(), 8u);
  EXPECT_EQ(restored.set_count(), original.set_count());
  EXPECT_EQ(restored.set_size(0), 3u);
  EXPECT_EQ(restored.extract_sets(), original.extract_sets());

  // The restored forest keeps merging correctly.
  restored.merge(5, 7);
  EXPECT_TRUE(restored.same(0, 1));
  EXPECT_EQ(restored.set_size(0), 5u);
}

TEST(UnionFind, RestoreRejectsCorruptForests) {
  UnionFind uf;
  EXPECT_THROW(uf.restore({0, 9}), std::invalid_argument);  // out of range
  EXPECT_THROW(uf.restore({1, 0}), std::invalid_argument);  // 2-cycle
  EXPECT_THROW(uf.restore({1, 2, 0}), std::invalid_argument);  // 3-cycle
  uf.restore({0, 0, 1});  // a valid chain still works
  EXPECT_TRUE(uf.same(0, 2));
  EXPECT_EQ(uf.set_count(), 1u);
}

TEST(UnionFind, MemoryUsageIsLinearInElementCount) {
  UnionFind uf(1000);
  const auto b = uf.memory_usage();
  EXPECT_EQ(b.name, "union_find");
  ASSERT_EQ(b.parts.size(), 2u);
  // Two u32 vectors of exactly n elements (capacity may round up, never
  // down), so the total is at least 2 * 4 * n and O(n) overall.
  EXPECT_GE(b.total(), 2u * sizeof(std::uint32_t) * 1000u);
  EXPECT_LE(b.total(), 4u * sizeof(std::uint32_t) * 1000u + 1024u);

  // Growth is monotone in n: the linear-space claim's testable core.
  EXPECT_GT(b.total(), UnionFind(10).memory_usage().total());
}

}  // namespace
}  // namespace pclust::dsu
