// The pooled dense_subgraphs passes must give byte-identical results to the
// serial path for every pool size.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "pclust/bigraph/bipartite_graph.hpp"
#include "pclust/exec/pool.hpp"
#include "pclust/shingle/shingle.hpp"
#include "pclust/util/rng.hpp"

namespace pclust::shingle {
namespace {

bigraph::BipartiteGraph random_graph(std::uint64_t seed, std::uint32_t left,
                                     std::uint32_t right, double density) {
  util::Xoshiro256 rng(seed);
  std::vector<bigraph::Edge> edges;
  for (std::uint32_t l = 0; l < left; ++l) {
    for (std::uint32_t r = 0; r < right; ++r) {
      if (rng.uniform() < density) edges.push_back({l, r});
    }
  }
  return bigraph::BipartiteGraph(left, right, std::move(edges));
}

TEST(ParallelShingle, DenseSubgraphsMatchSerial) {
  // The reference is the one-lane run (a null pool); every pool size, the
  // null pool again included, must reproduce its subgraphs, stats and
  // Pass II merge capture.
  const auto g = random_graph(101, 80, 80, 0.25);
  ShingleParams params;
  params.s1 = 4;
  params.c1 = 60;
  DsdStats serial_stats;
  std::vector<ShingleMerge> serial_merges;
  const auto serial =
      dense_subgraphs(g, params, &serial_stats, nullptr, &serial_merges);
  ASSERT_FALSE(serial_merges.empty());
  for (const unsigned threads : {0u, 1u, 2u, 8u}) {  // 0 = null pool
    std::optional<exec::Pool> pool;
    if (threads > 0) pool.emplace(threads);
    DsdStats stats;
    std::vector<ShingleMerge> merges;
    const auto pooled = dense_subgraphs(g, params, &stats,
                                        pool ? &*pool : nullptr, &merges);
    ASSERT_EQ(pooled.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(pooled[i].left, serial[i].left);
      EXPECT_EQ(pooled[i].right, serial[i].right);
    }
    EXPECT_EQ(stats.tuples, serial_stats.tuples);
    EXPECT_EQ(stats.first_level_shingles, serial_stats.first_level_shingles);
    EXPECT_EQ(stats.second_level_shingles, serial_stats.second_level_shingles);
    EXPECT_EQ(stats.raw_components, serial_stats.raw_components);
    ASSERT_EQ(merges.size(), serial_merges.size()) << "threads=" << threads;
    for (std::size_t k = 0; k < merges.size(); ++k) {
      EXPECT_EQ(merges[k].a, serial_merges[k].a) << "merge " << k;
      EXPECT_EQ(merges[k].b, serial_merges[k].b) << "merge " << k;
      EXPECT_EQ(merges[k].matches, serial_merges[k].matches) << "merge " << k;
      EXPECT_EQ(merges[k].columns, serial_merges[k].columns) << "merge " << k;
    }
  }
}

}  // namespace
}  // namespace pclust::shingle
