#include "pclust/exec/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace pclust::exec {
namespace {

TEST(Pool, SizeOneRunsInline) {
  Pool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(7);
  pool.for_range(7, 2, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) seen[i] = std::this_thread::get_id();
  });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(Pool, ZeroPicksHardwareConcurrency) {
  Pool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(Pool, EveryIndexVisitedExactlyOnce) {
  Pool pool(4);
  for (std::size_t n : {0u, 1u, 3u, 64u, 1000u}) {
    for (std::size_t grain : {0u, 1u, 7u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for(pool, n, grain, [&](std::size_t i) { hits[i]++; });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " grain=" << grain
                                     << " i=" << i;
      }
    }
  }
}

TEST(Pool, ParallelMapIsIndexOrdered) {
  Pool pool(4);
  const auto out = parallel_map<std::uint64_t>(
      pool, 500, 3, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 500u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(Pool, ReductionMatchesSerial) {
  Pool pool(3);
  const std::size_t n = 1 << 12;
  const auto parts = parallel_map<double>(pool, n, 32, [](std::size_t i) {
    return 1.0 / static_cast<double>(i + 1);
  });
  // Fold in index order: bit-identical to the straight serial loop.
  double pooled = 0.0;
  for (double v : parts) pooled += v;
  double serial = 0.0;
  for (std::size_t i = 0; i < n; ++i) serial += 1.0 / static_cast<double>(i + 1);
  EXPECT_EQ(pooled, serial);
}

TEST(Pool, ExceptionPropagatesToCaller) {
  Pool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 100, 1,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("chunk 37");
                   }),
      std::runtime_error);
  // The pool stays usable after a failed loop.
  std::atomic<int> count{0};
  parallel_for(pool, 10, 1, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 10);
}

TEST(Pool, ConcurrentForRangeFromManyThreads) {
  // mpsim rank threads share one pool: concurrent for_range calls must each
  // see a complete, private iteration space.
  Pool pool(4);
  constexpr int kCallers = 6;
  constexpr std::size_t kN = 400;
  std::vector<std::uint64_t> sums(kCallers, 0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &sums, c] {
      std::vector<std::uint32_t> hits(kN, 0);
      parallel_for(pool, kN, 7, [&hits](std::size_t i) { hits[i]++; });
      sums[static_cast<std::size_t>(c)] =
          std::accumulate(hits.begin(), hits.end(), std::uint64_t{0});
    });
  }
  for (auto& t : callers) t.join();
  for (std::uint64_t s : sums) EXPECT_EQ(s, kN);
}

TEST(Pool, NestedLoopsKeepOneOuterChunkPerLane) {
  // The BGG+DSD drain's shape: an outer loop of grain 1 whose bodies run
  // their own loops on the same pool. Every inner index runs once, a lane
  // inside an outer body takes no second outer chunk (so at most one per
  // lane is in flight), and an inner throw reaches the outer caller.
  Pool pool(4);
  constexpr std::size_t kOuter = 24;
  constexpr std::size_t kInner = 300;
  std::vector<std::vector<std::uint32_t>> hits(
      kOuter, std::vector<std::uint32_t>(kInner, 0));
  std::atomic<int> in_flight{0};
  std::atomic<int> most{0};
  parallel_for(pool, kOuter, 1, [&](std::size_t g) {
    const int now = ++in_flight;
    int seen = most.load();
    while (now > seen && !most.compare_exchange_weak(seen, now)) {
    }
    parallel_for(pool, kInner, 7, [&](std::size_t i) { hits[g][i]++; });
    --in_flight;
  });
  for (const auto& row : hits) {
    EXPECT_EQ(std::accumulate(row.begin(), row.end(), std::uint64_t{0}),
              kInner);
  }
  EXPECT_LE(most.load(), static_cast<int>(pool.size()));

  EXPECT_THROW(parallel_for(pool, kOuter, 1,
                            [&](std::size_t g) {
                              parallel_for(pool, kInner, 7,
                                           [g](std::size_t i) {
                                             if (g == 5 && i == 123) {
                                               throw std::logic_error("inner");
                                             }
                                           });
                            }),
               std::logic_error);
}

TEST(Pool, NestedWorkFromPoolSizesAgrees) {
  // The same computation on pools of size 1, 2, and 8 gives the same bytes.
  std::vector<std::vector<std::uint64_t>> results;
  for (unsigned threads : {1u, 2u, 8u}) {
    Pool pool(threads);
    results.push_back(parallel_map<std::uint64_t>(
        pool, 777, 5, [](std::size_t i) { return (i * 2654435761u) >> 3; }));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

}  // namespace
}  // namespace pclust::exec
