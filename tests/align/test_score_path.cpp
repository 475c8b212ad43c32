// The score-only rolling-row fast path must be bit-identical to the
// full-matrix traceback aligners: same score, same region coordinates,
// same column statistics — on random sequences, related (mutated)
// sequences, banded and unbanded.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pclust/align/pairwise.hpp"
#include "pclust/seq/alphabet.hpp"
#include "pclust/util/rng.hpp"

namespace pclust::align {
namespace {

std::string random_peptide(util::Xoshiro256& rng, std::size_t len) {
  std::string out(len, '\0');
  for (auto& c : out) {
    c = static_cast<char>(rng.below(seq::kNumResidues));
  }
  return out;
}

/// Copy of `a` with roughly `rate` of positions substituted and a few
/// indels, so local optima are non-trivial regions.
std::string mutate(util::Xoshiro256& rng, const std::string& a, double rate) {
  std::string out;
  out.reserve(a.size() + 8);
  for (const char c : a) {
    const double roll = rng.uniform();
    if (roll < rate * 0.2) continue;  // deletion
    if (roll < rate * 0.4) {          // insertion
      out.push_back(static_cast<char>(rng.below(seq::kNumResidues)));
    }
    out.push_back(roll < rate ? static_cast<char>(rng.below(seq::kNumResidues))
                              : c);
  }
  return out;
}

void expect_identical(const AlignmentResult& full, const AlignmentResult& fast,
                      const char* what) {
  EXPECT_EQ(full.score, fast.score) << what;
  EXPECT_EQ(full.a_begin, fast.a_begin) << what;
  EXPECT_EQ(full.a_end, fast.a_end) << what;
  EXPECT_EQ(full.b_begin, fast.b_begin) << what;
  EXPECT_EQ(full.b_end, fast.b_end) << what;
  EXPECT_EQ(full.columns, fast.columns) << what;
  EXPECT_EQ(full.matches, fast.matches) << what;
  EXPECT_EQ(full.positives, fast.positives) << what;
  EXPECT_EQ(full.gap_columns, fast.gap_columns) << what;
  EXPECT_EQ(full.cells, fast.cells) << what;
}

void check_all_modes(const std::string& a, const std::string& b) {
  const ScoringScheme& s = blosum62();
  expect_identical(local_align(a, b, s), local_align_score(a, b, s), "local");
  const std::int64_t max_d = static_cast<std::int64_t>(a.size());
  for (const std::int64_t diagonal : {-max_d / 2, std::int64_t{0}, max_d / 3}) {
    for (const std::uint32_t band : {0u, 1u, 3u, 8u, 40u}) {
      expect_identical(banded_local_align(a, b, s, diagonal, band),
                       banded_local_align_score(a, b, s, diagonal, band),
                       "banded local");
    }
  }
}

TEST(ScorePath, EmptyAndTinySequences) {
  using seq::encode;
  check_all_modes("", "");
  check_all_modes(encode("A"), "");
  check_all_modes("", encode("A"));
  check_all_modes(encode("A"), encode("A"));
  check_all_modes(encode("AC"), encode("CA"));
}

TEST(ScorePath, MatchesFullMatrixOnRandomPairs) {
  util::Xoshiro256 rng(20260806);
  for (int it = 0; it < 40; ++it) {
    const std::size_t la = 1 + rng.below(120);
    const std::size_t lb = 1 + rng.below(120);
    check_all_modes(random_peptide(rng, la), random_peptide(rng, lb));
  }
}

TEST(ScorePath, MatchesFullMatrixOnRelatedPairs) {
  util::Xoshiro256 rng(777);
  for (int it = 0; it < 30; ++it) {
    const std::string a = random_peptide(rng, 40 + rng.below(120));
    const std::string b = mutate(rng, a, 0.05 + 0.3 * rng.uniform());
    check_all_modes(a, b);
    // Contained fragment: the shape the RR predicate actually sees.
    const std::size_t frag_len = a.size() / 2;
    const std::size_t at = rng.below(a.size() - frag_len + 1);
    check_all_modes(a.substr(at, frag_len), b);
  }
}

TEST(ScorePath, BandMissingEverythingStillAgrees) {
  util::Xoshiro256 rng(99);
  const std::string a = random_peptide(rng, 50);
  const std::string b = random_peptide(rng, 50);
  const ScoringScheme& s = blosum62();
  // Diagonal far outside the matrix: band covers no cell.
  expect_identical(banded_local_align(a, b, s, 500, 4),
                   banded_local_align_score(a, b, s, 500, 4), "empty band");
  expect_identical(banded_local_align(a, b, s, -500, 4),
                   banded_local_align_score(a, b, s, -500, 4), "empty band");
}

TEST(ScorePath, WideBundleTierMatchesFullMatrix) {
  // Sequences longer than the packed-bundle tier's 2047-residue limit take
  // the wide (two-word) bundle storage; both tiers must stay bit-identical
  // to the full-matrix engine. Banded to keep the full-matrix side cheap.
  util::Xoshiro256 rng(2048);
  const std::string a = random_peptide(rng, 2100);
  const std::string b = mutate(rng, a, 0.15);
  const ScoringScheme& s = blosum62();
  expect_identical(banded_local_align(a, b, s, 0, 48),
                   banded_local_align_score(a, b, s, 0, 48), "wide tier");
  const std::string short_b = random_peptide(rng, 90);
  expect_identical(local_align(a, short_b, s),
                   local_align_score(a, short_b, s), "wide tier mixed len");

  // Beyond 16-bit coordinates: ~70,000-residue sequences that share only a
  // tail copied with substitutions (no indels, so it stays on the band's
  // diagonal). The best region begins past offset 65,535, where a 16-bit
  // begin coordinate would wrap.
  const std::string long_a = random_peptide(rng, 70'000);
  std::string long_b = random_peptide(rng, 66'000);
  for (std::size_t i = long_b.size(); i < long_a.size(); ++i) {
    long_b.push_back(rng.uniform() < 0.1
                         ? static_cast<char>(rng.below(seq::kNumResidues))
                         : long_a[i]);
  }
  const auto full = banded_local_align(long_a, long_b, s, 0, 8);
  EXPECT_GT(full.a_begin, 65'535u);
  EXPECT_GT(full.b_begin, 65'535u);
  expect_identical(full, banded_local_align_score(long_a, long_b, s, 0, 8),
                   "wide tier past 16-bit offsets");
}

TEST(ScorePath, BandedRegionAllocationMatchesFullWhenBandCovers) {
  // A band wide enough to cover the whole matrix must reproduce the
  // unbanded result exactly (both engines).
  util::Xoshiro256 rng(4242);
  const std::string a = random_peptide(rng, 70);
  const std::string b = random_peptide(rng, 55);
  const ScoringScheme& s = blosum62();
  const auto full = local_align(a, b, s);
  const auto wide_band = static_cast<std::uint32_t>(a.size() + b.size());
  expect_identical(full, banded_local_align(a, b, s, 0, wide_band),
                   "wide band full engine");
  expect_identical(full, banded_local_align_score(a, b, s, 0, wide_band),
                   "wide band score engine");
}

}  // namespace
}  // namespace pclust::align
