#include "pclust/align/pairwise.hpp"

#include <gtest/gtest.h>

#include "pclust/seq/alphabet.hpp"

namespace pclust::align {
namespace {

using seq::encode;

const ScoringScheme kId = identity_scoring(/*match=*/2, /*mismatch=*/-3,
                                           /*gap_open=*/4, /*gap_extend=*/1);

TEST(GlobalAlign, IdenticalSequences) {
  const auto a = encode("ACDEFGHIK");
  const auto r = global_align(a, a, kId);
  EXPECT_EQ(r.score, 2 * 9);
  EXPECT_EQ(r.columns, 9u);
  EXPECT_EQ(r.matches, 9u);
  EXPECT_EQ(r.gap_columns, 0u);
  EXPECT_DOUBLE_EQ(r.identity(), 1.0);
  EXPECT_EQ(r.a_begin, 0u);
  EXPECT_EQ(r.a_end, 9u);
}

TEST(GlobalAlign, SingleSubstitution) {
  const auto a = encode("ACDEF");
  const auto b = encode("ACDDF");  // E->D at index 3
  const auto r = global_align(a, b, kId);
  EXPECT_EQ(r.score, 4 * 2 - 3);
  EXPECT_EQ(r.matches, 4u);
  EXPECT_EQ(r.columns, 5u);
}

TEST(GlobalAlign, SingleGap) {
  const auto a = encode("ACDEF");
  const auto b = encode("ACEF");  // D deleted
  const auto r = global_align(a, b, kId);
  // 4 matches (2*4=8) minus open+extend (4+1=5).
  EXPECT_EQ(r.score, 8 - 5);
  EXPECT_EQ(r.gap_columns, 1u);
  EXPECT_EQ(r.columns, 5u);
}

TEST(GlobalAlign, AffineGapPreferredOverTwoGaps) {
  // One 2-long gap should cost open+2*extend, not 2*(open+extend).
  const auto a = encode("AAAACCAAAA");
  const auto b = encode("AAAAAAAA");
  const auto r = global_align(a, b, kId);
  EXPECT_EQ(r.score, 8 * 2 - (4 + 2 * 1));
  EXPECT_EQ(r.gap_columns, 2u);
}

TEST(GlobalAlign, EmptyVersusNonEmpty) {
  const auto a = encode("ACD");
  const auto r = global_align(a, "", kId);
  EXPECT_EQ(r.score, -(4 + 3 * 1));
  EXPECT_EQ(r.columns, 3u);
  EXPECT_EQ(r.gap_columns, 3u);
}

TEST(GlobalAlign, BothEmpty) {
  const auto r = global_align("", "", kId);
  EXPECT_EQ(r.score, 0);
  EXPECT_EQ(r.columns, 0u);
}

TEST(LocalAlign, FindsEmbeddedMatch) {
  // Common segment "DEFGHIKL" embedded in unrelated flanks.
  const auto a = encode("WWWWDEFGHIKLWWWW");
  const auto b = encode("MMDEFGHIKLMM");
  const auto r = local_align(a, b, kId);
  EXPECT_EQ(r.score, 2 * 8);
  EXPECT_EQ(r.matches, 8u);
  EXPECT_EQ(r.a_begin, 4u);
  EXPECT_EQ(r.a_end, 12u);
  EXPECT_EQ(r.b_begin, 2u);
  EXPECT_EQ(r.b_end, 10u);
}

TEST(LocalAlign, NoPositiveAlignmentGivesEmpty) {
  const auto a = encode("AAAA");
  const auto b = encode("WWWW");
  const auto r = local_align(a, b, kId);
  EXPECT_EQ(r.score, 0);
  EXPECT_EQ(r.columns, 0u);
}

TEST(LocalAlign, BridgesMismatchWhenWorthIt) {
  // Two 5-match runs separated by one mismatch: 10 matches*2 - 3 = 17
  // beats a single run's 10.
  const auto a = encode("DEFGHWIKLMN");
  const auto b = encode("DEFGHCIKLMN");
  const auto r = local_align(a, b, kId);
  EXPECT_EQ(r.score, 10 * 2 - 3);
  EXPECT_EQ(r.matches, 10u);
  EXPECT_EQ(r.columns, 11u);
}

TEST(LocalAlign, ScoreNeverNegative) {
  const auto a = encode("ACDEFG");
  const auto b = encode("WYWYWY");
  EXPECT_GE(local_align(a, b, kId).score, 0);
}

TEST(LocalAlign, SymmetricScore) {
  const auto a = encode("ACDEFGHIKLM");
  const auto b = encode("CDEFGGHIKL");
  EXPECT_EQ(local_align(a, b, kId).score, local_align(b, a, kId).score);
}

TEST(BandedLocal, WideBandMatchesFull) {
  const auto a = encode("WWWWDEFGHIKLWWWW");
  const auto b = encode("MMDEFGHIKLMM");
  const auto full = local_align(a, b, kId);
  const auto banded = banded_local_align(a, b, kId, /*diagonal=*/2,
                                         /*band=*/100);
  EXPECT_EQ(full.score, banded.score);
  EXPECT_EQ(full.matches, banded.matches);
}

TEST(BandedLocal, NarrowBandOnCorrectDiagonal) {
  const auto a = encode("WWWWDEFGHIKLWWWW");
  const auto b = encode("MMDEFGHIKLMM");
  // Match starts at a[4], b[2]: diagonal 2.
  const auto r = banded_local_align(a, b, kId, 2, 3);
  EXPECT_EQ(r.score, 2 * 8);
}

TEST(BandedLocal, NarrowBandComputesFewerCells) {
  const auto a = encode("WWWWDEFGHIKLWWWW");
  const auto b = encode("MMDEFGHIKLMM");
  const auto full = local_align(a, b, kId);
  const auto banded = banded_local_align(a, b, kId, 2, 2);
  EXPECT_LT(banded.cells, full.cells);
}

TEST(BandedLocal, WrongDiagonalMissesMatch) {
  const auto a = encode("WWWWDEFGHIKLWWWW");
  const auto b = encode("MMDEFGHIKLMM");
  const auto r = banded_local_align(a, b, kId, -8, 1);
  EXPECT_LT(r.score, 2 * 8);
}

TEST(AlignmentResult, CoverageFractions) {
  AlignmentResult r;
  r.a_begin = 2;
  r.a_end = 8;
  r.b_begin = 0;
  r.b_end = 6;
  EXPECT_DOUBLE_EQ(r.a_coverage(12), 0.5);
  EXPECT_DOUBLE_EQ(r.b_coverage(6), 1.0);
  EXPECT_DOUBLE_EQ(r.a_coverage(0), 0.0);
}

TEST(GlobalAlign, Blosum62IdenticalScoresSelfSimilarity) {
  const auto a = encode("MKTAYIAKQR");
  const auto r = global_align(a, a, blosum62());
  std::int32_t expected = 0;
  for (char c : a) {
    expected += blosum62().score(static_cast<std::uint8_t>(c),
                                 static_cast<std::uint8_t>(c));
  }
  EXPECT_EQ(r.score, expected);
}

TEST(CellsAccounting, FullMatrixCellCount) {
  const auto a = encode("ACDEF");
  const auto b = encode("ACD");
  EXPECT_EQ(global_align(a, b, kId).cells, 15u);
}

}  // namespace
}  // namespace pclust::align
