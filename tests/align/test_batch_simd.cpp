// The batched SIMD engine must be bit-identical to the scalar score-only
// engine at every --simd setting: same scores, same region statistics,
// same cell counts — across partial lane fills, banded and unbanded
// geometries, mixed-length batches, the length cutoff to the scalar
// fallback, and score-overflow promotion back to exact scalar recompute.
// On co-optimal and zero-score paths it must also equal the full-matrix
// traceback aligners, and it counts where each pair was scored. The
// pooled call must equal one unpooled call at every pool size.
//
// set_isa() clamps to the host's capabilities, so iterating every Isa is
// safe anywhere: on a host without AVX2 the avx2 round simply re-runs the
// widest supported tier.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "pclust/align/batch.hpp"
#include "pclust/align/pairwise.hpp"
#include "pclust/align/scoring.hpp"
#include "pclust/align/simd.hpp"
#include "pclust/exec/pool.hpp"
#include "pclust/seq/alphabet.hpp"
#include "pclust/util/metrics.hpp"
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

TEST(BatchSimd, CoOptimalPathsMatchTraceback) {
  // Inputs with many co-optimal paths, where only align_impl's exact
  // tie-breaks pick the region: homopolymers, tandem repeats, equal-cost
  // gap placements, and paths whose running local score returns to
  // exactly 0 (the traceback stops at that first non-positive M cell, but
  // not at a gap state of score 0). Long repeats make band 32 take the
  // banded kernel; band 0 pins the path to one diagonal.
  const auto rep = [](const std::string& motif, std::size_t times) {
    std::string out;
    for (std::size_t k = 0; k < times; ++k) out += motif;
    return out;
  };
  const std::pair<std::string, std::string> ascii[] = {
      {"AAAAAAAAAAAA", "AAAAAAA"},
      {rep("W", 90), rep("W", 75)},
      {rep("ACD", 6), rep("ACD", 3)},
      {rep("ACD", 40), rep("ACD", 20) + "AC" + rep("ACD", 20)},
      {rep("KLMN", 30), rep("KLMN", 12) + "KLM" + rep("KLMN", 17)},
      {"GGGGGGCGGGGGG", "GGGGGGGGGGGG"},
      {rep("G", 40) + "PP" + rep("G", 40), rep("G", 78)},
      {"HHHHEEEEHHHH", "HHHHHHHH"},
      {"AWAAA", "AYAAA"},
      {"ACWACCC", "ACYACCC"},
      {"AAWWAAAA", "AAYYAAAA"},
      {rep("CW", 40) + "CC", rep("CY", 40) + "CC"},
      {rep("AAW", 30), rep("AAY", 30)},
      {"CAAAA", "CWAAAA"},
      {rep("CAAAAK", 15), rep("CWAAAAK", 15)},
  };
  std::vector<std::string> seqs;
  seqs.reserve(2 * std::size(ascii));  // jobs view these strings in place
  std::vector<PairJob> jobs;
  for (const auto& [a, b] : ascii) {
    seqs.push_back(seq::encode(a));
    seqs.push_back(seq::encode(b));
    const std::string_view va = seqs[seqs.size() - 2], vb = seqs.back();
    for (const auto& [x, y] : {std::pair{va, vb}, std::pair{vb, va}}) {
      jobs.push_back({x, y, 0, -1});
      for (const std::int64_t diag : {-3, -1, 0, 1, 2}) {
        jobs.push_back({x, y, diag, 0});
      }
      for (const std::int64_t diag : {-9, 0, 4, 17}) {
        jobs.push_back({x, y, diag, 32});
      }
    }
  }

  // identity(1, -1) returns to exactly 0 at each lone mismatch;
  // identity(1, -3) with a gap-open cost of 1 leaves gap states at 0
  // that the traceback must walk through.
  const ScoringScheme schemes[] = {blosum62(), identity_scoring(1, -1, 1, 1),
                                   identity_scoring(1, -3, 0, 1)};
  for (std::size_t k = 0; k < std::size(schemes); ++k) {
    const ScoringScheme& scheme = schemes[k];
    std::vector<AlignmentResult> want(jobs.size());
    for (std::size_t p = 0; p < jobs.size(); ++p) {
      const PairJob& job = jobs[p];
      want[p] = job.band < 0
                    ? local_align(job.a, job.b, scheme)
                    : banded_local_align(job.a, job.b, scheme, job.diagonal,
                                         static_cast<std::uint32_t>(job.band));
      expect_identical(want[p], scalar_reference(job, scheme),
                       "scheme=" + std::to_string(k) +
                           " score-only pair=" + std::to_string(p));
    }
    for (const Isa isa : kAllIsas) {
      IsaGuard guard(isa);
      std::vector<AlignmentResult> got(jobs.size());
      align_score_batch(jobs.data(), jobs.size(), scheme, got.data());
      for (std::size_t p = 0; p < jobs.size(); ++p) {
        expect_identical(want[p], got[p],
                         "scheme=" + std::to_string(k) + " isa=" +
                             isa_name(current_isa()) + " pair=" +
                             std::to_string(p));
      }
    }
  }
}

TEST(BatchSimd, CountsWhereEachPairWasScored) {
  // Every pair counts once: read from a lane (align.simd_pairs) or scored
  // by the scalar engine (align.scalar_pairs) — here a side over the
  // 2047-residue lane cap and a saturated lane, which also counts under
  // align.overflow_pairs. Under Isa::kScalar, or a scheme without a
  // gap-open cost, every pair is scalar.
  util::Xoshiro256 rng(7006);
  const ScoringScheme hot = identity_scoring(1000, -1000, 3, 1);
  std::vector<std::string> seqs;
  seqs.reserve(16);  // jobs view these strings in place
  std::vector<PairJob> jobs;
  constexpr std::size_t kOrdinary = 6;
  for (std::size_t k = 0; k < kOrdinary; ++k) {
    // At most 20 matches x 1000 stays below the 29000 saturation guard.
    seqs.push_back(random_peptide(rng, 5 + rng.below(16)));
    seqs.push_back(random_peptide(rng, 5 + rng.below(16)));
    jobs.push_back({seqs[seqs.size() - 2], seqs.back(), 0,
                    k % 2 == 0 ? -1 : 4});
  }
  seqs.push_back(random_peptide(rng, 2048));
  seqs.push_back(random_peptide(rng, 40));
  jobs.push_back({seqs[seqs.size() - 2], seqs.back(), 0, -1});
  seqs.push_back(random_peptide(rng, 60));
  jobs.push_back({seqs.back(), seqs.back(), 0, -1});  // 60 x 1000 saturates

  const auto routes = [] {
    const util::MetricsSnapshot snap = util::metrics().snapshot();
    return std::array<std::uint64_t, 3>{snap.counter("align.simd_pairs"),
                                        snap.counter("align.scalar_pairs"),
                                        snap.counter("align.overflow_pairs")};
  };
  for (const Isa isa : kAllIsas) {
    IsaGuard guard(isa);
    const bool lanes = current_isa() != Isa::kScalar;
    const std::string what = std::string("isa=") + isa_name(current_isa());
    const auto before = routes();
    std::vector<AlignmentResult> got(jobs.size());
    align_score_batch(jobs.data(), jobs.size(), hot, got.data());
    const auto after = routes();
    EXPECT_EQ(after[0] - before[0], lanes ? kOrdinary : 0) << what;
    EXPECT_EQ(after[1] - before[1], lanes ? 2 : jobs.size()) << what;
    EXPECT_EQ(after[2] - before[2], lanes ? 1 : 0) << what;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      expect_identical(scalar_reference(jobs[k], hot), got[k],
                       what + " pair=" + std::to_string(k));
    }
  }

  // Without a gap-open cost a gap run can end at an M cell of score 0,
  // which the lanes' traceback codes cannot mark: such schemes score every
  // pair in scalar code.
  const ScoringScheme free_gaps = identity_scoring(2, -1, 0, 0);
  const auto before = routes();
  std::vector<AlignmentResult> got(jobs.size());
  align_score_batch(jobs.data(), jobs.size(), free_gaps, got.data());
  const auto after = routes();
  EXPECT_EQ(after[0] - before[0], 0u);
  EXPECT_EQ(after[1] - before[1], jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    expect_identical(scalar_reference(jobs[k], free_gaps), got[k],
                     "free gaps pair=" + std::to_string(k));
  }
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

TEST(BatchSimd, PooledSplitMatchesOneCall) {
  // The pooled call is the library's one alignment splitter: at every pool
  // size and job count its results equal one unpooled call's, across
  // unbanded jobs, two band half-widths and pairs past the lane length cap.
  util::Xoshiro256 rng(9103);
  const ScoringScheme& s = blosum62();
  const std::size_t most = 5 * kPoolGrain + 3;
  std::vector<std::string> residues;
  residues.reserve(2 * most);  // the jobs view these strings in place
  std::vector<PairJob> jobs;
  for (std::size_t k = 0; k < most; ++k) {
    const bool past_cap = k % 97 == 5;
    const std::size_t len =
        past_cap ? 2100 + rng.below(100) : 30 + rng.below(220);
    residues.push_back(random_peptide(rng, len));
    residues.push_back(mutate(rng, residues.back(), 0.15));
    // Pairs past the cap take the scalar fallback; a band keeps it cheap.
    const std::int64_t band =
        past_cap ? 24 : k % 3 == 0 ? -1 : k % 3 == 1 ? 8 : 24;
    jobs.push_back({residues[2 * k], residues[2 * k + 1],
                    static_cast<std::int64_t>(rng.below(9)) - 4, band});
  }

  exec::Pool one(1), two(2), four(4);
  const std::pair<const char*, exec::Pool*> pools[] = {
      {"null", nullptr}, {"1", &one}, {"2", &two}, {"4", &four}};
  const auto expect_split_matches =
      [&](exec::Pool* pool, const std::vector<AlignmentResult>& want,
          const std::string& what) {
        std::vector<AlignmentResult> got(want.size());
        align_score_batch(jobs.data(), want.size(), s, got.data(), pool);
        for (std::size_t k = 0; k < want.size(); ++k) {
          expect_identical(want[k], got[k], what + " job=" + std::to_string(k));
        }
      };
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, kPoolGrain, kPoolGrain + 1, most}) {
    std::vector<AlignmentResult> want(count);
    align_score_batch(jobs.data(), count, s, want.data());
    for (const auto& [name, pool] : pools) {
      expect_split_matches(
          pool, want,
          std::string("pool=") + name + " count=" + std::to_string(count));
    }
  }
}

TEST(BatchSimd, PooledLaneSlicesMatchOneCall) {
  // Several lanes cut a call into one slice per lane (never below one SIMD
  // chunk, never above kPoolGrain), so the slice boundaries move with both
  // the count and the pool size. Every count from 1 to 300 must still
  // score each job exactly as one unpooled call does.
  util::Xoshiro256 rng(9211);
  const ScoringScheme& s = blosum62();
  constexpr std::size_t kMost = 300;
  std::vector<std::string> residues;
  residues.reserve(2 * kMost);
  std::vector<PairJob> jobs;
  for (std::size_t k = 0; k < kMost; ++k) {
    residues.push_back(random_peptide(rng, 16 + rng.below(48)));
    residues.push_back(mutate(rng, residues.back(), 0.2));
    const std::int64_t band = k % 2 == 0 ? -1 : 12;
    jobs.push_back({residues[2 * k], residues[2 * k + 1],
                    static_cast<std::int64_t>(rng.below(5)) - 2, band});
  }
  std::vector<AlignmentResult> want(kMost);
  align_score_batch(jobs.data(), kMost, s, want.data());

  for (const unsigned lanes : {1u, 2u, 4u, 8u}) {
    exec::Pool pool(lanes);
    std::vector<AlignmentResult> got(kMost);
    for (std::size_t count = 1; count <= kMost; ++count) {
      align_score_batch(jobs.data(), count, s, got.data(), &pool);
      for (std::size_t k = 0; k < count; ++k) {
        expect_identical(want[k], got[k],
                         "lanes=" + std::to_string(lanes) +
                             " count=" + std::to_string(count) +
                             " job=" + std::to_string(k));
      }
    }
  }
}

}  // namespace
}  // namespace pclust::align
