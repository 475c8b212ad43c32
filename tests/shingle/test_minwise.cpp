#include "pclust/shingle/minwise.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "pclust/util/rng.hpp"

namespace pclust::shingle {
namespace {

std::vector<std::uint32_t> iota_links(std::uint32_t n, std::uint32_t start = 0) {
  std::vector<std::uint32_t> v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

/// The values of shingle_set(links, s, c, seed), ascending.
std::vector<std::uint64_t> shingle_values(std::span<const std::uint32_t> links,
                                          std::uint32_t s, std::uint32_t c,
                                          std::uint64_t seed) {
  std::vector<std::uint64_t> values;
  for (const Shingle& sh : shingle_set(links, s, c, seed)) {
    values.push_back(sh.value);
  }
  return values;
}

TEST(MinWise, TooFewLinksGivesNothing) {
  const auto links = iota_links(3);
  EXPECT_TRUE(shingle_set(links, 5, 10, 1).empty());
  EXPECT_TRUE(shingle_set({}, 1, 10, 1).empty());
}

TEST(MinWise, ExactSizeGivesSingleShingle) {
  const auto links = iota_links(5);
  const auto set = shingle_set(links, 5, 300, 7);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set[0].elements, links);
}

TEST(MinWise, ElementsAreSubsetOfLinksAndSorted) {
  const auto links = iota_links(40, 100);
  for (const auto& sh : shingle_set(links, 5, 50, 3)) {
    EXPECT_EQ(sh.elements.size(), 5u);
    EXPECT_TRUE(std::is_sorted(sh.elements.begin(), sh.elements.end()));
    for (auto e : sh.elements) {
      EXPECT_GE(e, 100u);
      EXPECT_LT(e, 140u);
    }
  }
}

TEST(MinWise, DeterministicInSeed) {
  const auto links = iota_links(30);
  const auto a = shingle_set(links, 4, 20, 99);
  const auto b = shingle_set(links, 4, 20, 99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].value, b[i].value);
    EXPECT_EQ(a[i].elements, b[i].elements);
  }
}

TEST(MinWise, DifferentSeedsDiffer) {
  const auto links = iota_links(30);
  const auto a = shingle_values(links, 4, 20, 1);
  const auto b = shingle_values(links, 4, 20, 2);
  EXPECT_NE(a, b);
}

TEST(MinWise, OrderOfLinksIrrelevant) {
  auto links = iota_links(20);
  const auto a = shingle_values(links, 3, 10, 5);
  std::reverse(links.begin(), links.end());
  const auto b = shingle_values(links, 3, 10, 5);
  EXPECT_EQ(a, b);
}

TEST(MinWise, IdenticalLinkSetsShareAllShingles) {
  const auto links = iota_links(25);
  const auto a = shingle_values(links, 5, 30, 11);
  const auto b = shingle_values(links, 5, 30, 11);
  EXPECT_EQ(a, b);
}

TEST(MinWise, HighOverlapSharesAtLeastOneShingle) {
  // Two vertices sharing 18 of 20 out-links should share a shingle with
  // overwhelming probability at c = 100.
  auto a_links = iota_links(20);
  auto b_links = a_links;
  b_links[0] = 1000;
  b_links[1] = 1001;
  const auto a = shingle_values(a_links, 5, 100, 13);
  const auto b = shingle_values(b_links, 5, 100, 13);
  std::set<std::uint64_t> sa(a.begin(), a.end());
  int shared = 0;
  for (auto v : b) shared += sa.count(v) ? 1 : 0;
  EXPECT_GT(shared, 0);
}

TEST(MinWise, DisjointSetsShareNothing) {
  const auto a = shingle_values(iota_links(20, 0), 5, 100, 13);
  const auto b = shingle_values(iota_links(20, 1000), 5, 100, 13);
  std::set<std::uint64_t> sa(a.begin(), a.end());
  for (auto v : b) EXPECT_EQ(sa.count(v), 0u);
}

TEST(MinWise, LargerSLowersSharingProbability) {
  // Fixed 50 % overlap: larger s => fewer shared shingles (paper §IV-D).
  auto a_links = iota_links(20, 0);
  auto b_links = iota_links(20, 10);  // overlap = 10 elements
  int shared_s2 = 0, shared_s8 = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    for (std::uint32_t s : {2u, 8u}) {
      const auto a = shingle_values(a_links, s, 50, seed);
      const auto b = shingle_values(b_links, s, 50, seed);
      std::set<std::uint64_t> sa(a.begin(), a.end());
      int shared = 0;
      for (auto v : b) shared += sa.count(v) ? 1 : 0;
      (s == 2 ? shared_s2 : shared_s8) += shared;
    }
  }
  EXPECT_GT(shared_s2, shared_s8);
}

TEST(MinWise, ShinglesDeduplicated) {
  const auto set = shingle_set(iota_links(6), 5, 300, 21);
  std::set<std::uint64_t> values;
  for (const auto& sh : set) {
    EXPECT_TRUE(values.insert(sh.value).second);
  }
  // Only C(6,5) = 6 possible distinct shingles exist.
  EXPECT_LE(set.size(), 6u);
}

/// The selection the sketch core replaced, kept as its reference: per
/// permutation, rank every link by its keyed hash and partial_sort the s
/// smallest; then sort the shingles by value and drop repeated values.
std::vector<Shingle> reference_shingle_set(std::span<const std::uint32_t> links,
                                           std::uint32_t s, std::uint32_t c,
                                           std::uint64_t seed) {
  const auto canonical = [](const std::vector<std::uint32_t>& elements) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t e : elements) h = util::hash_combine(h, e);
    return h;
  };
  std::vector<Shingle> out;
  if (s == 0 || links.size() < s) return out;
  if (links.size() == s) {
    std::vector<std::uint32_t> all(links.begin(), links.end());
    std::sort(all.begin(), all.end());
    out.push_back(Shingle{canonical(all), std::move(all)});
    return out;
  }
  for (std::uint32_t k = 0; k < c; ++k) {
    util::SplitMix64 sm(
        seed ^ (static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ULL));
    const std::uint64_t key = sm.next() | 1ULL;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> ranked;
    for (std::uint32_t x : links) {
      ranked.emplace_back(
          util::mix64((static_cast<std::uint64_t>(x) + 1) * key), x);
    }
    std::partial_sort(ranked.begin(), ranked.begin() + s, ranked.end());
    std::vector<std::uint32_t> elements(s);
    for (std::uint32_t i = 0; i < s; ++i) elements[i] = ranked[i].second;
    std::sort(elements.begin(), elements.end());
    out.push_back(Shingle{canonical(elements), std::move(elements)});
  }
  std::sort(out.begin(), out.end(), [](const Shingle& a, const Shingle& b) {
    return a.value < b.value;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Shingle& a, const Shingle& b) {
                          return a.value == b.value;
                        }),
            out.end());
  return out;
}

TEST(MinWise, SketchMatchesPartialSortReference) {
  util::Xoshiro256 rng(4242);
  for (const std::uint32_t s : {1u, 2u, 4u, 5u, 33u, 64u}) {
    for (const std::uint32_t n : {s - 1, s, s + 1, 4 * s, 300u}) {
      // Distinct, unsorted links drawn from a wide id range.
      std::set<std::uint32_t> drawn;
      while (drawn.size() < n) {
        drawn.insert(static_cast<std::uint32_t>(rng.below(1u << 24)));
      }
      std::vector<std::uint32_t> links(drawn.begin(), drawn.end());
      std::shuffle(links.begin(), links.end(), rng);
      for (const std::uint32_t c : {1u, 60u, 150u}) {
        const std::uint64_t seed = rng();
        const auto expected = reference_shingle_set(links, s, c, seed);
        const auto actual = shingle_set(links, s, c, seed);
        ASSERT_EQ(actual.size(), expected.size())
            << "s=" << s << " |links|=" << n << " c=" << c;
        for (std::size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(actual[i].value, expected[i].value);
          EXPECT_EQ(actual[i].elements, expected[i].elements)
              << "s=" << s << " |links|=" << n << " c=" << c;
        }
      }
    }
  }
}

TEST(MinWise, OwnerTableKeepsFirstOwnerThroughGrowthAndClear) {
  // Enough values to grow the table several times; every value keeps the
  // owner that claimed it first, also after the slots were rehashed.
  OwnerTable table;
  util::Xoshiro256 rng(77);
  std::vector<std::uint64_t> values;
  for (std::uint32_t k = 0; k < 1000; ++k) {
    values.push_back(rng());
    EXPECT_EQ(table.claim(values.back(), k), k);
  }
  // Values that all hash to slot 0 (value 0 among them) share one probe
  // run.
  for (std::uint32_t k = 0; k < 40; ++k) {
    values.push_back((std::uint64_t{k} << 32) | k);
    EXPECT_EQ(table.claim(values.back(), 1000 + k), 1000 + k);
  }
  EXPECT_EQ(table.size(), values.size());
  for (std::uint32_t k = 0; k < values.size(); ++k) {
    EXPECT_EQ(table.claim(values[k], 5000 + k), k);
  }
  EXPECT_EQ(table.size(), values.size());

  const std::uint64_t bytes = table.bytes();
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.bytes(), bytes);
  EXPECT_EQ(table.claim(values[7], 3), 3u);
  EXPECT_EQ(table.claim(values[7], 4), 3u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(MinWise, CIncreasesCoverage) {
  const auto links = iota_links(30);
  const auto small = shingle_set(links, 5, 5, 31);
  const auto large = shingle_set(links, 5, 200, 31);
  EXPECT_LT(small.size(), large.size());
}

}  // namespace
}  // namespace pclust::shingle
