// The q-gram gate for Definition 1 (containment_possible) is lossless:
// every containment direction it rules out is one containment_outcome
// rejects, on the batch engine's results, banded and unbanded, at the
// default cutoffs and at tuned ones. The proof assumes each result's
// span, matches and columns describe one alignment path, so that is
// checked too. Pairs are random, synthetic, and mutated copies whose
// errors are spaced to sit near the bound.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "pclust/align/batch.hpp"
#include "pclust/align/predicates.hpp"
#include "pclust/seq/alphabet.hpp"
#include "pclust/synth/generator.hpp"
#include "pclust/util/rng.hpp"

namespace pclust::align {
namespace {

constexpr std::size_t kQ = 3;

/// Rank-encoded random residues; with @p with_x, 'X' is drawn too.
std::string random_peptide(util::Xoshiro256& rng, std::size_t len,
                           bool with_x = false) {
  const auto symbols = static_cast<std::uint64_t>(
      with_x ? seq::kAlphabetSize : seq::kNumResidues);
  std::string out(len, '\0');
  for (char& c : out) c = static_cast<char>(rng.below(symbols));
  return out;
}

/// The gate's bound and the count it compares against it, computed
/// independently of the library: the inner's 3-gram positions whose 3-gram
/// occurs anywhere in the outer.
struct QgramOracle {
  double bound = 0.0;
  std::size_t count = 0;

  QgramOracle(std::string_view inner, std::string_view outer,
              const ContainmentParams& p) {
    const double s = p.min_similarity;
    bound = std::floor(p.min_coverage * static_cast<double>(inner.size())) *
                (1.0 - kQ * (1.0 - s) / s) -
            (kQ - 1.0);
    std::set<std::string_view> grams;
    for (std::size_t i = 0; i + kQ <= outer.size(); ++i) {
      grams.insert(outer.substr(i, kQ));
    }
    for (std::size_t i = 0; i + kQ <= inner.size(); ++i) {
      count += grams.count(inner.substr(i, kQ));
    }
  }
};

struct Direction {
  std::string inner;
  std::string outer;
  std::int64_t diagonal = 0;  // band seed: inner position - outer position
};

/// @p outer's [from, from + len) copied with @p errors edits spaced evenly
/// and kept off the ends, so each breaks its own q-grams and the local
/// alignment bridges them: substitutions (some to 'X'), inner residues
/// the outer lacks, and outer residues the inner skips.
std::string mutated_core(util::Xoshiro256& rng, const std::string& outer,
                         std::size_t from, std::size_t len,
                         std::size_t errors) {
  std::string core = outer.substr(from, len);
  if (errors == 0) return core;
  const std::size_t step = len / (errors + 1);
  // Edit right to left so earlier positions keep their meaning.
  for (std::size_t e = errors; e >= 1; --e) {
    const std::size_t at = e * step;
    const std::uint64_t kind = rng.below(6);
    if (kind == 0) {
      core.insert(core.begin() + static_cast<std::ptrdiff_t>(at),
                  static_cast<char>(rng.below(seq::kNumResidues)));
    } else if (kind == 1) {
      core.erase(at, 1);
    } else {
      char c = kind == 2 ? static_cast<char>(seq::kRankX)
                         : static_cast<char>(rng.below(seq::kNumResidues));
      if (c == core[at]) c = static_cast<char>((c + 1) % seq::kNumResidues);
      core[at] = c;
    }
  }
  return core;
}

/// An inner of length about @p m that covers just over c·m residues of a
/// mutated window of the outer, with about the most errors (1 - s) of
/// that span allows: the accepted directions whose q-gram count sits
/// closest to the bound.
Direction near_bound(util::Xoshiro256& rng, const ContainmentParams& p,
                     std::size_t m, bool with_x) {
  const auto span = static_cast<std::size_t>(
      std::ceil(p.min_coverage * static_cast<double>(m)));
  const auto max_errors = static_cast<std::size_t>(
      (1.0 - p.min_similarity) * static_cast<double>(span));
  // One error either side of the most the cutoff allows.
  std::size_t errors = max_errors + rng.below(3);
  errors = errors > 0 ? errors - 1 : 0;
  const std::size_t left_flank = rng.below(m - span + 1);
  const std::size_t outer_left = rng.below(40);
  Direction d;
  d.outer = random_peptide(rng, outer_left, with_x) +
            random_peptide(rng, span, with_x) +
            random_peptide(rng, rng.below(40), with_x);
  d.inner = random_peptide(rng, left_flank) +
            mutated_core(rng, d.outer, outer_left, span, errors) +
            random_peptide(rng, m - span - left_flank);
  d.diagonal = static_cast<std::int64_t>(left_flank) -
               static_cast<std::int64_t>(outer_left);
  return d;
}

/// The settings the gate is checked at: the paper's cutoffs, tuned ones
/// with a positive bound (s = 1 makes it exact), and one whose bound is
/// never positive (the gate must pass everything).
std::vector<ContainmentParams> settings() {
  return {ContainmentParams{},
          ContainmentParams{0.90, 0.80},
          ContainmentParams{0.98, 0.60},
          ContainmentParams{1.00, 0.90},
          ContainmentParams{0.70, 0.95}};
}

std::vector<Direction> directions() {
  util::Xoshiro256 rng(20261017);
  std::vector<Direction> out;
  // Random pairs, short ones (below q) and 'X' included.
  for (int k = 0; k < 600; ++k) {
    const std::size_t m = k % 10 == 0 ? rng.below(5) : 20 + rng.below(300);
    const std::size_t n =
        k % 10 == 5 || k % 20 == 0 ? rng.below(5) : 20 + rng.below(300);
    out.push_back({random_peptide(rng, m, k % 3 == 0),
                   random_peptide(rng, n, k % 3 == 0),
                   static_cast<std::int64_t>(rng.below(41)) - 20});
  }
  // Near-bound mutated pairs for every setting, each also reversed.
  for (const ContainmentParams& p : settings()) {
    for (int k = 0; k < 150; ++k) {
      Direction d = near_bound(rng, p, 30 + rng.below(400), k % 4 == 0);
      out.push_back({d.outer, d.inner, -d.diagonal});
      out.push_back(std::move(d));
    }
  }
  // Exact copies and all-'X' sequences: the q-gram count is maximal.
  const std::string copy = random_peptide(rng, 150, true);
  out.push_back({copy, copy, 0});
  out.push_back({copy.substr(10, 100), copy, -10});
  const std::string xs(120, static_cast<char>(seq::kRankX));
  out.push_back({xs, xs, 0});
  out.push_back({xs.substr(0, 50), copy, 0});
  // Synthetic families with contained duplicates: every ordered pair.
  synth::DatasetSpec spec;
  spec.seed = 77;
  spec.num_sequences = 70;
  spec.num_families = 3;
  spec.mean_length = 120;
  spec.redundant_fraction = 0.25;
  spec.noise_fraction = 0.1;
  const synth::Dataset data = synth::generate(spec);
  for (seq::SeqId i = 0; i < data.sequences.size(); ++i) {
    for (seq::SeqId j = 0; j < data.sequences.size(); ++j) {
      if (i == j) continue;
      out.push_back({std::string(data.sequences.residues(i)),
                     std::string(data.sequences.residues(j)), 0});
    }
  }
  return out;
}

TEST(ContainmentGate, GatedDirectionsAreRejectedByTheDp) {
  const std::vector<Direction> dirs = directions();
  const std::vector<ContainmentParams> params = settings();
  struct Tally {
    std::size_t tested = 0;
    std::size_t gated = 0;
    std::size_t accepted = 0;
    double min_margin = std::numeric_limits<double>::infinity();
  };
  std::vector<Tally> tally(params.size());
  for (const std::int64_t band : {std::int64_t{-1}, std::int64_t{32}}) {
    std::vector<PairJob> jobs;
    jobs.reserve(dirs.size());
    for (const Direction& d : dirs) {
      jobs.push_back({d.inner, d.outer, d.diagonal, band});
    }
    std::vector<AlignmentResult> results(jobs.size());
    align_score_batch(jobs.data(), jobs.size(), blosum62(), results.data());
    for (std::size_t k = 0; k < dirs.size(); ++k) {
      const Direction& d = dirs[k];
      const AlignmentResult& r = results[k];
      SCOPED_TRACE("direction " + std::to_string(k) + ", band " +
                   std::to_string(band) + ", m " +
                   std::to_string(d.inner.size()) + ", n " +
                   std::to_string(d.outer.size()));
      // One path: matches <= each span <= columns <= both spans.
      const std::uint32_t a_span = r.a_end - r.a_begin;
      const std::uint32_t b_span = r.b_end - r.b_begin;
      EXPECT_LE(r.matches, a_span);
      EXPECT_LE(r.matches, b_span);
      EXPECT_LE(a_span, r.columns);
      EXPECT_LE(b_span, r.columns);
      EXPECT_LE(r.columns, a_span + b_span);
      for (std::size_t i = 0; i < params.size(); ++i) {
        const ContainmentParams& p = params[i];
        Tally& t = tally[i];
        ++t.tested;
        const bool possible = containment_possible(d.inner, d.outer, p);
        const bool accepted =
            containment_outcome(r, d.inner.size(), p).accepted;
        const QgramOracle oracle(d.inner, d.outer, p);
        EXPECT_EQ(possible, oracle.bound <= 0.0 ||
                                static_cast<double>(oracle.count) >=
                                    oracle.bound)
            << "s " << p.min_similarity << ", c " << p.min_coverage;
        if (!possible) {
          ++t.gated;
          EXPECT_FALSE(accepted)
              << "gated an accepted direction: s " << p.min_similarity
              << ", c " << p.min_coverage << ", count " << oracle.count
              << ", bound " << oracle.bound;
        }
        if (accepted) {
          ++t.accepted;
          t.min_margin =
              std::min(t.min_margin,
                       static_cast<double>(oracle.count) - oracle.bound);
        }
      }
    }
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tally& t = tally[i];
    std::printf("[ qgram gate ] s %.2f c %.2f: %zu directions, %zu gated, "
                "%zu accepted, smallest accepted margin %.3f q-grams\n",
                params[i].min_similarity, params[i].min_coverage, t.tested,
                t.gated, t.accepted, t.min_margin);
    EXPECT_GT(t.accepted, 100u);
    EXPECT_GE(t.min_margin, 0.0);
  }
  // Every setting with a positive bound gates most unrelated directions.
  for (std::size_t i = 0; i + 1 < params.size(); ++i) {
    EXPECT_GT(tally[i].gated, tally[i].tested / 2);
  }
  EXPECT_EQ(tally.back().gated, 0u);
}

TEST(ContainmentGate, PassesWhenTheBoundIsNotPositive) {
  const auto inner = seq::encode("ACDEFGHIKLMNPQRSTVWY");
  const auto unrelated = seq::encode("WWWWWWWWWWWWWWWWWWWW");
  // The default bound is positive at m = 20 and no inner 3-gram occurs.
  EXPECT_FALSE(containment_possible(inner, unrelated));
  EXPECT_TRUE(containment_possible(inner, unrelated, {0.0, 0.95}));
  EXPECT_TRUE(containment_possible(inner, unrelated, {0.70, 0.95}));
  EXPECT_TRUE(containment_possible(inner, unrelated, {0.95, 0.05}));
  // Below q residues there are no q-grams, and no positive bound.
  EXPECT_TRUE(containment_possible(seq::encode("AC"), unrelated));
  EXPECT_TRUE(containment_possible(inner, seq::encode("AC"), {0.95, 0.0}));
  EXPECT_FALSE(containment_possible(inner, seq::encode("AC")));
  EXPECT_TRUE(containment_possible(inner, inner));
}

}  // namespace
}  // namespace pclust::align
