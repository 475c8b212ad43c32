// The batched SIMD engine must be bit-identical to the scalar score-only
// engine at every --simd setting: same scores, same region statistics,
// same cell counts — across partial lane fills, banded and unbanded
// geometries, mixed-length batches, the length cutoff to the scalar
// fallback, and score-overflow promotion back to exact scalar recompute.
//
// set_isa() clamps to the host's capabilities, so iterating every Isa is
// safe anywhere: on a host without AVX2 the avx2 round simply re-runs the
// widest supported tier.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pclust/align/batch.hpp"
#include "pclust/align/pairwise.hpp"
#include "pclust/align/scoring.hpp"
#include "pclust/align/simd.hpp"
#include "pclust/seq/alphabet.hpp"
#include "pclust/util/rng.hpp"

namespace pclust::align {
namespace {

const Isa kAllIsas[] = {Isa::kScalar, Isa::kSse2, Isa::kAvx2};

/// RAII ISA override so a failing test cannot leak its setting.
struct IsaGuard {
  explicit IsaGuard(Isa isa) : saved(current_isa()) { set_isa(isa); }
  ~IsaGuard() { set_isa(saved); }
  Isa saved;
};

std::string random_peptide(util::Xoshiro256& rng, std::size_t len) {
  std::string out(len, '\0');
  for (auto& c : out) {
    c = static_cast<char>(rng.below(seq::kNumResidues));
  }
  return out;
}

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

AlignmentResult scalar_reference(const PairJob& job,
                                 const ScoringScheme& scheme) {
  if (job.band < 0) return local_align_score(job.a, job.b, scheme);
  return banded_local_align_score(job.a, job.b, scheme, job.diagonal,
                                  static_cast<std::uint32_t>(job.band));
}

void expect_identical(const AlignmentResult& want, const AlignmentResult& got,
                      const std::string& what) {
  EXPECT_EQ(want.score, got.score) << what;
  EXPECT_EQ(want.a_begin, got.a_begin) << what;
  EXPECT_EQ(want.a_end, got.a_end) << what;
  EXPECT_EQ(want.b_begin, got.b_begin) << what;
  EXPECT_EQ(want.b_end, got.b_end) << what;
  EXPECT_EQ(want.columns, got.columns) << what;
  EXPECT_EQ(want.matches, got.matches) << what;
  EXPECT_EQ(want.positives, got.positives) << what;
  EXPECT_EQ(want.gap_columns, got.gap_columns) << what;
  EXPECT_EQ(want.cells, got.cells) << what;
}

void check_batch(const std::vector<PairJob>& jobs,
                 const ScoringScheme& scheme, const std::string& label) {
  std::vector<AlignmentResult> want(jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    want[k] = scalar_reference(jobs[k], scheme);
  }
  for (const Isa isa : kAllIsas) {
    IsaGuard guard(isa);
    std::vector<AlignmentResult> got(jobs.size());
    align_score_batch(jobs.data(), jobs.size(), scheme, got.data());
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      expect_identical(want[k], got[k],
                       label + " isa=" + isa_name(current_isa()) + " pair=" +
                           std::to_string(k));
    }
  }
}

TEST(BatchSimd, IsaParsingAndClamping) {
  EXPECT_EQ(parse_isa("off"), Isa::kScalar);
  EXPECT_EQ(parse_isa("scalar"), Isa::kScalar);
  EXPECT_EQ(parse_isa("sse2"), Isa::kSse2);
  EXPECT_EQ(parse_isa("avx2"), Isa::kAvx2);
  EXPECT_EQ(parse_isa("auto"), detect_best_isa());
  EXPECT_FALSE(parse_isa("neon").has_value());
  EXPECT_FALSE(parse_isa("AVX2").has_value());
  // set_isa never exceeds the host's capability.
  IsaGuard guard(current_isa());
  const Isa eff = set_isa(Isa::kAvx2);
  EXPECT_LE(static_cast<int>(eff), static_cast<int>(detect_best_isa()));
  EXPECT_EQ(current_isa(), eff);
  EXPECT_EQ(set_isa(Isa::kScalar), Isa::kScalar);
  EXPECT_EQ(isa_lanes(Isa::kScalar), 1u);
  EXPECT_EQ(isa_lanes(Isa::kSse2), 8u);
  EXPECT_EQ(isa_lanes(Isa::kAvx2), 16u);
}

TEST(BatchSimd, LaneFillsUnbanded) {
  util::Xoshiro256 rng(7001);
  const ScoringScheme& s = blosum62();
  // Every fill from a lone pair through two full AVX2 batches, so partial
  // final chunks of both kernels are exercised at every lane width.
  for (std::size_t count : {1u, 2u, 7u, 8u, 9u, 15u, 16u, 17u, 33u}) {
    std::vector<std::string> seqs;
    std::vector<PairJob> jobs;
    for (std::size_t k = 0; k < 2 * count; ++k) {
      seqs.push_back(random_peptide(rng, 20 + rng.below(180)));
    }
    for (std::size_t k = 0; k < count; ++k) {
      jobs.push_back({seqs[2 * k], seqs[2 * k + 1], 0, -1});
    }
    check_batch(jobs, s, "fill=" + std::to_string(count));
  }
}

TEST(BatchSimd, BandedGeometries) {
  util::Xoshiro256 rng(7002);
  const ScoringScheme& s = blosum62();
  std::vector<std::string> seqs;
  seqs.reserve(96);  // jobs hold views into seqs: no reallocation allowed
  std::vector<PairJob> jobs;
  // Mixed bands force per-band grouping; related pairs give real optima
  // and diagonals, random offsets push bands off-center and off-sequence.
  for (const std::int64_t band : {1, 4, 32, 160}) {
    for (int k = 0; k < 12; ++k) {
      seqs.push_back(random_peptide(rng, 30 + rng.below(300)));
      seqs.push_back(mutate(rng, seqs.back(), 0.2));
      const std::int64_t diag =
          static_cast<std::int64_t>(rng.below(81)) - 40;
      jobs.push_back({seqs[seqs.size() - 2], seqs.back(), diag, band});
    }
  }
  check_batch(jobs, s, "banded");
}

TEST(BatchSimd, MixedLengthsAndLengthTierFallback) {
  util::Xoshiro256 rng(7003);
  const ScoringScheme& s = blosum62();
  std::vector<std::string> seqs;
  seqs.reserve(15);  // jobs hold views into seqs: no reallocation allowed
  std::vector<PairJob> jobs;
  // Lengths straddling the 2047 lane cap: longer pairs must fall back to
  // the scalar engine inside the same batch.
  for (const std::size_t len : {5u, 60u, 500u, 2000u, 2047u, 2048u, 2600u}) {
    seqs.push_back(random_peptide(rng, len));
    seqs.push_back(mutate(rng, seqs.back(), 0.15));
    jobs.push_back({seqs[seqs.size() - 2], seqs.back(), 0, -1});
    jobs.push_back({seqs.back(), seqs[seqs.size() - 2], 2, 24});
  }
  // Degenerate jobs ride along: empty sides and a band missing everything.
  seqs.push_back(random_peptide(rng, 40));
  jobs.push_back({std::string_view{}, seqs.back(), 0, -1});
  jobs.push_back({seqs.back(), std::string_view{}, 0, 8});
  jobs.push_back({seqs.back(), seqs.back(), 4000, 4});  // band off-matrix
  check_batch(jobs, s, "tiers");
}

TEST(BatchSimd, OverflowPromotionToScalar) {
  util::Xoshiro256 rng(7004);
  // match=1000 over hundreds of residues drives M scores far past the
  // 16-bit saturation guard: every such lane must flag and recompute
  // exactly, while short pairs in the same batch stay on the SIMD path.
  const ScoringScheme hot = identity_scoring(1000, -1, 3, 1);
  std::vector<std::string> seqs;
  seqs.reserve(24);  // jobs hold views into seqs: no reallocation allowed
  std::vector<PairJob> jobs;
  for (int k = 0; k < 6; ++k) {
    seqs.push_back(random_peptide(rng, 200 + rng.below(600)));
    seqs.push_back(mutate(rng, seqs.back(), 0.05));
    jobs.push_back({seqs[seqs.size() - 2], seqs.back(), 0, -1});
    jobs.push_back({seqs[seqs.size() - 2], seqs.back(), 0, 16});
    seqs.push_back(random_peptide(rng, 10 + rng.below(20)));
    seqs.push_back(random_peptide(rng, 10 + rng.below(20)));
    jobs.push_back({seqs[seqs.size() - 2], seqs.back(), 0, -1});
  }
  check_batch(jobs, hot, "overflow");
}

TEST(BatchSimd, FuzzRandomGeometry) {
  util::Xoshiro256 rng(7005);
  const ScoringScheme& s = blosum62();
  for (int round = 0; round < 8; ++round) {
    const std::size_t count = 1 + rng.below(40);
    std::vector<std::string> seqs;
    seqs.reserve(2 * count);
    std::vector<PairJob> jobs;
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t len = 1 + rng.below(260);
      seqs.push_back(random_peptide(rng, len));
      if (rng.below(2) == 0) {
        seqs.push_back(mutate(rng, seqs.back(), 0.3));
      } else {
        seqs.push_back(random_peptide(rng, 1 + rng.below(260)));
      }
      PairJob job{seqs[2 * k], seqs[2 * k + 1], 0, -1};
      switch (rng.below(4)) {
        case 0: break;  // unbanded
        case 1:
          job.band = static_cast<std::int64_t>(rng.below(48));
          job.diagonal = static_cast<std::int64_t>(rng.below(61)) - 30;
          break;
        case 2:  // band wider than the matrix: clamps to unbanded limits
          job.band = static_cast<std::int64_t>(job.a.size() + job.b.size() +
                                               rng.below(10));
          job.diagonal = static_cast<std::int64_t>(rng.below(21)) - 10;
          break;
        default:  // wide-but-clamping band (full storage, limited rows)
          job.band = static_cast<std::int64_t>(job.b.size() / 2 + 1);
          job.diagonal = static_cast<std::int64_t>(rng.below(41)) - 20;
          break;
      }
      jobs.push_back(job);
    }
    check_batch(jobs, s, "fuzz round=" + std::to_string(round));
  }
}

}  // namespace
}  // namespace pclust::align
