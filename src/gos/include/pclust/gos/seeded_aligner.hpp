// "blastp-lite": a word-seeded banded Smith–Waterman comparator.
//
// Substitutes for NCBI BLASTP in the GOS baseline (§II): same
// seed-then-extend structure — a pair is aligned only if it shares at least
// one w-length word, and the dynamic programming is banded around the most
// promising diagonal — without BLAST's statistics (E-values are not needed;
// the baseline cuts on identity and coverage).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "pclust/align/pairwise.hpp"
#include "pclust/seq/sequence_set.hpp"

namespace pclust::gos {

struct SeededAlignerParams {
  std::uint32_t word_size = 4;  // BLASTP default word size ~3-4
  std::uint32_t band = 24;      // half width around the seed diagonal
};

class SeededAligner {
 public:
  /// Pre-indexes every sequence's word set.
  SeededAligner(const seq::SequenceSet& set, SeededAlignerParams params,
                const align::ScoringScheme& scheme);

  /// Align sequences a and b if they share a seed word; nullopt otherwise
  /// (BLAST reports "no hit"). Cells spent on rejected pairs still count.
  [[nodiscard]] std::optional<align::AlignmentResult> align(
      seq::SeqId a, seq::SeqId b);

  [[nodiscard]] std::uint64_t total_cells() const { return total_cells_; }
  [[nodiscard]] std::uint64_t seeded_pairs() const { return seeded_pairs_; }
  [[nodiscard]] std::uint64_t seedless_pairs() const {
    return seedless_pairs_;
  }

 private:
  /// Best (most word hits) shared diagonal, or nullopt if no shared word.
  [[nodiscard]] std::optional<std::int64_t> best_diagonal(seq::SeqId a,
                                                          seq::SeqId b) const;

  const seq::SequenceSet& set_;
  SeededAlignerParams params_;
  const align::ScoringScheme& scheme_;
  // Per sequence: sorted (packed word, offset) list.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint32_t>>> words_;
  std::uint64_t total_cells_ = 0;
  std::uint64_t seeded_pairs_ = 0;
  std::uint64_t seedless_pairs_ = 0;
};

}  // namespace pclust::gos
