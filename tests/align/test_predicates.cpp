#include "pclust/align/predicates.hpp"

#include <gtest/gtest.h>

#include "pclust/seq/alphabet.hpp"

namespace pclust::align {
namespace {

using seq::encode;

const ScoringScheme kId = identity_scoring(2, -3, 4, 1);

TEST(Containment, ExactSubstringIsContained) {
  const auto outer = encode("WWWWDEFGHIKLMNPQWWWW");
  const auto inner = encode("DEFGHIKLMNPQ");
  const auto out = test_containment(inner, outer, kId);
  EXPECT_TRUE(out.accepted);
  EXPECT_DOUBLE_EQ(out.alignment.identity(), 1.0);
}

TEST(Containment, NotSymmetric) {
  const auto outer = encode("WWWWDEFGHIKLMNPQWWWW");
  const auto inner = encode("DEFGHIKLMNPQ");
  // The outer sequence is NOT contained in the inner one (coverage fails).
  EXPECT_FALSE(test_containment(outer, inner, kId).accepted);
}

TEST(Containment, SmallErrorTolerated) {
  // 40 residues, one substitution: 39/40 = 97.5 % >= 95 %.
  std::string inner_ascii(40, 'A');
  std::string outer_ascii = "WWW" + inner_ascii + "WWW";
  inner_ascii[20] = 'C';
  const auto out =
      test_containment(encode(inner_ascii), encode(outer_ascii), kId);
  EXPECT_TRUE(out.accepted);
}

TEST(Containment, TooManyErrorsRejected) {
  // 10 substitutions over 40 residues: 75 % < 95 %.
  std::string inner_ascii(40, 'A');
  const std::string outer_ascii = "WWW" + inner_ascii + "WWW";
  for (int i = 0; i < 10; ++i) inner_ascii[static_cast<std::size_t>(i * 4)] = 'C';
  EXPECT_FALSE(
      test_containment(encode(inner_ascii), encode(outer_ascii), kId).accepted);
}

TEST(Containment, PartialCoverageRejected) {
  // Only half of inner appears in outer.
  const auto inner = encode("DEFGHIKLMNPQRSTVDEFG" "WYWYWYWYWYWYWYWYWYWY");
  const auto outer = encode("AADEFGHIKLMNPQRSTVDEFGAA");
  EXPECT_FALSE(test_containment(inner, outer, kId).accepted);
}

TEST(Containment, CutoffsAreTunable) {
  ContainmentParams loose;
  loose.min_coverage = 0.40;
  const auto inner = encode("DEFGHIKLMNPQRSTVDEFG" "WYWYWYWYWYWYWYWYWYWY");
  const auto outer = encode("AADEFGHIKLMNPQRSTVDEFGAA");
  EXPECT_TRUE(test_containment(inner, outer, kId, loose).accepted);
}

TEST(Containment, IdenticalSequencesMutuallyContained) {
  const auto s = encode("ACDEFGHIKLMNPQRSTVWY");
  EXPECT_TRUE(test_containment(s, s, kId).accepted);
}

TEST(Overlap, HighSimilarityFullCoverage) {
  const auto a = encode("ACDEFGHIKLMNPQRSTVWYACDEFGHIKL");
  const auto b = a;
  EXPECT_TRUE(test_overlap(a, b, kId).accepted);
}

TEST(Overlap, CoverageOfLongerSequenceRequired) {
  // Short b aligns perfectly but covers only a fraction of long a.
  const auto a = encode(std::string(100, 'A') + "DEFGHIKLMN" +
                        std::string(100, 'C'));
  const auto b = encode("DEFGHIKLMN");
  EXPECT_FALSE(test_overlap(a, b, kId).accepted);
  EXPECT_FALSE(test_overlap(b, a, kId).accepted);  // order must not matter
}

TEST(Overlap, ModerateDivergenceAccepted) {
  // ~73 % identity over the full length passes the 30 % cutoff. Build a
  // repeating pattern with every 4th residue differing.
  std::string x, y;
  const std::string motif = "DEFGHIKLMNPQ";
  for (int rep = 0; rep < 5; ++rep) {
    for (std::size_t i = 0; i < motif.size(); ++i) {
      x += motif[i];
      y += (i % 4 == 3) ? 'A' : motif[i];
    }
  }
  const auto out = test_overlap(encode(x), encode(y), kId);
  EXPECT_TRUE(out.accepted);
  EXPECT_NEAR(out.alignment.identity(), 0.75, 0.05);
}

TEST(Overlap, UnrelatedSequencesRejected) {
  const auto a = encode(std::string(60, 'A') + std::string(60, 'C'));
  const auto b = encode(std::string(60, 'W') + std::string(60, 'Y'));
  EXPECT_FALSE(test_overlap(a, b, kId).accepted);
}

TEST(Overlap, BandedAgreesWithFullOnSeededDiagonal) {
  const auto a = encode("ACDEFGHIKLMNPQRSTVWYACDEFGHIKL");
  const auto b = encode("CDEFGHIKLMNPQRSTVWYACDEFGHIKLM");
  const auto full = test_overlap(a, b, kId);
  const auto banded = test_overlap_banded(a, b, kId, /*diagonal=*/-1,
                                          /*band=*/8);
  EXPECT_EQ(full.accepted, banded.accepted);
  EXPECT_EQ(full.alignment.score, banded.alignment.score);
}

TEST(Overlap, BandedComputesFewerCells) {
  const auto a = encode(std::string(80, 'A') + "DEFGHIKLMN");
  const auto b = encode(std::string(78, 'A') + "DEFGHIKLMN");
  const auto full = test_overlap(a, b, kId);
  const auto banded = test_overlap_banded(a, b, kId, 2, 6);
  EXPECT_LT(banded.alignment.cells, full.alignment.cells);
}

}  // namespace
}  // namespace pclust::align
