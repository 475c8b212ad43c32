// The pooled dense_subgraphs passes must give byte-identical results to the
// serial path for every pool size, and the same results as the pinned
// digests of fixed B_d- and B_m-shaped graphs.
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

/// B_d-shaped: square and symmetric. Families of 2..40 consecutive
/// vertices are dense blocks with dropout; sparse noise links families.
bigraph::BipartiteGraph bd_shaped(std::uint64_t seed, std::uint32_t n) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint32_t> family(n);
  for (std::uint32_t v = 0, f = 0; v < n; ++f) {
    const auto size = static_cast<std::uint32_t>(2 + rng.below(39));
    for (std::uint32_t k = 0; k < size && v < n; ++k) family[v++] = f;
  }
  std::vector<bigraph::Edge> edges;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (rng.chance(family[i] == family[j] ? 0.75 : 0.004)) {
        edges.push_back({i, j});
        edges.push_back({j, i});
      }
    }
  }
  return {n, n, std::move(edges)};
}

/// B_m-shaped: many low-degree word vertices (left), each linking a few
/// sequences (right) of one group of 4..25, sometimes one outside it.
bigraph::BipartiteGraph bm_shaped(std::uint64_t seed, std::uint32_t words,
                                  std::uint32_t seqs) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint32_t> group_start;
  for (std::uint32_t v = 0; v < seqs;) {
    group_start.push_back(v);
    v += static_cast<std::uint32_t>(4 + rng.below(22));
  }
  group_start.push_back(seqs);
  std::vector<bigraph::Edge> edges;
  for (std::uint32_t w = 0; w < words; ++w) {
    const auto g = rng.below(group_start.size() - 1);
    const std::uint32_t lo = group_start[g];
    const std::uint32_t span = group_start[g + 1] - lo;
    const auto degree = static_cast<std::uint32_t>(1 + rng.below(12));
    for (std::uint32_t k = 0; k < degree; ++k) {
      edges.push_back({w, lo + static_cast<std::uint32_t>(rng.below(span))});
    }
    if (rng.chance(0.1)) {
      edges.push_back({w, static_cast<std::uint32_t>(rng.below(seqs))});
    }
  }
  return {words, seqs, std::move(edges)};
}

ShingleParams params_of(std::uint32_t s1, std::uint32_t c1, std::uint32_t s2,
                        std::uint32_t c2) {
  ShingleParams p;
  p.s1 = s1;
  p.c1 = c1;
  p.s2 = s2;
  p.c2 = c2;
  return p;
}

/// One hash over everything dense_subgraphs returns: candidates, the
/// DsdStats tallies and the surviving Pass II merges.
std::uint64_t digest(const std::vector<DenseSubgraph>& out,
                     const DsdStats& stats,
                     const std::vector<ShingleMerge>& merges) {
  std::uint64_t h = util::hash_combine(0, out.size());
  for (const DenseSubgraph& ds : out) {
    h = util::hash_combine(h, ds.left.size());
    for (const std::uint32_t v : ds.left) h = util::hash_combine(h, v);
    h = util::hash_combine(h, ds.right.size());
    for (const std::uint32_t v : ds.right) h = util::hash_combine(h, v);
  }
  for (const std::uint64_t x :
       {stats.tuples, stats.first_level_shingles,
        stats.second_level_shingles, stats.raw_components}) {
    h = util::hash_combine(h, x);
  }
  h = util::hash_combine(h, merges.size());
  for (const ShingleMerge& m : merges) {
    for (const std::uint32_t x : {m.a, m.b, m.matches, m.columns}) {
      h = util::hash_combine(h, x);
    }
  }
  return h;
}

/// The digest of one run at every pool size the TSan leg covers.
void expect_pinned(const bigraph::BipartiteGraph& g, const ShingleParams& p,
                   std::uint64_t pinned) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    exec::Pool pool(threads);
    DsdStats stats;
    std::vector<ShingleMerge> merges;
    const auto out = dense_subgraphs(g, p, &stats, &pool, &merges);
    EXPECT_EQ(digest(out, stats, merges), pinned)
        << "threads=" << threads << " tuples=" << stats.tuples
        << " s1=" << stats.first_level_shingles
        << " s2=" << stats.second_level_shingles
        << " components=" << stats.raw_components;
  }
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

// The pinned digests below were recorded with the map-and-sort Pass I
// (a per-value element map) and the node-based Pass II owner map that the
// flat tables replaced; the flat tables must reproduce them exactly.

TEST(ParallelShingle, BdShapedGraphMatchesPinnedDigest) {
  const auto g = bd_shaped(2203, 400);
  expect_pinned(g, params_of(4, 150, 2, 60), 0xecfeeb05eccbda7eULL);
  expect_pinned(g, params_of(5, 300, 2, 100), 0x5bce64f8fcad5ee1ULL);
  expect_pinned(g, params_of(2, 40, 3, 30), 0x3bfc7c9d4615f8d6ULL);
}

TEST(ParallelShingle, BmShapedGraphMatchesPinnedDigest) {
  const auto g = bm_shaped(2204, 3000, 300);
  expect_pinned(g, params_of(4, 150, 2, 60), 0x7b5bff0d903065ddULL);
  expect_pinned(g, params_of(5, 300, 2, 100), 0x8922970f02969ad9ULL);
  expect_pinned(g, params_of(1, 20, 2, 30), 0xe6f800697b2bc58dULL);
}

}  // namespace
}  // namespace pclust::shingle
