// Maximal-match pair generation — the paper's exact-match filtering
// heuristic (§IV-A/B).
//
// A "maximal match" between sequences s_a and s_b is an exact match that
// cannot be extended left or right (a mismatch or a sequence boundary on
// both flanks). Per Gusfield, the pair of occurrences is found at the
// suffix-tree node that is the LCA of the two suffixes: occurrences in
// different child subtrees (right-maximal) with different left characters
// (left-maximal, with sequence starts always passing).
//
// The generator emits pairs in NON-INCREASING match-length order — the
// on-demand schedule of [19] that lets the PaCE master merge clusters as
// early as possible — and supports restriction to a suffix-array range so
// mpsim workers can own disjoint prefix buckets of the tree.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "pclust/suffix/concat_text.hpp"
#include "pclust/suffix/lcp.hpp"
#include "pclust/suffix/suffix_array.hpp"

namespace pclust::suffix {

struct MaximalMatch {
  seq::SeqId a = 0;
  seq::SeqId b = 0;             // a != b; (a, b) normalized so a < b
  std::uint32_t a_pos = 0;      // match start offset within sequence a
  std::uint32_t b_pos = 0;
  std::uint32_t length = 0;

  /// Diagonal hint for banded alignment of (a, b).
  [[nodiscard]] std::int64_t diagonal() const {
    return static_cast<std::int64_t>(a_pos) - static_cast<std::int64_t>(b_pos);
  }

  friend bool operator==(const MaximalMatch&, const MaximalMatch&) = default;
};

struct MaximalMatchParams {
  /// Minimum match length ψ. The paper derives ψ from the error model
  /// (e.g. 98 % similarity over 100 residues implies a >= 33-residue exact
  /// match) and uses matches of length 10 for the 40 K experiment.
  std::uint32_t min_length = 10;
  /// Skip (and count) nodes whose occurrence list exceeds this bound —
  /// low-complexity guard, analogous to BLAST seed masking. 0 = unlimited.
  std::uint32_t max_node_occurrences = 50'000;
};

struct EnumerationStats {
  std::uint64_t nodes_visited = 0;
  std::uint64_t nodes_skipped_big = 0;
  std::uint64_t pairs_emitted = 0;
};

/// Enumerates maximal-match pairs over a pre-built SA+LCP. The text, sa and
/// lcp must outlive the enumerator.
class MaximalMatchEnumerator {
 public:
  MaximalMatchEnumerator(const ConcatText& text,
                         const std::vector<std::int32_t>& sa,
                         const std::vector<std::int32_t>& lcp,
                         MaximalMatchParams params = {});

  /// Visit matches in non-increasing length order, restricted to suffix-tree
  /// nodes fully inside SA range [range_lo, range_hi] (pass 0, sa.size()-1
  /// for everything). Return false from @p visit to stop early.
  EnumerationStats enumerate(
      std::int32_t range_lo, std::int32_t range_hi,
      const std::function<bool(const MaximalMatch&)>& visit) const;

  /// Convenience: all matches over the whole text.
  [[nodiscard]] std::vector<MaximalMatch> all() const;

  [[nodiscard]] const MaximalMatchParams& params() const { return params_; }

  /// Contiguous SA ranges grouping suffixes by their first
  /// min(prefix_len, run) residues, with separator-led suffixes excluded.
  /// Any suffix-tree node of depth >= prefix_len falls entirely inside one
  /// bucket, so buckets can be distributed to workers independently.
  /// Returns (lb, rb, total_suffix_chars) triples.
  struct Bucket {
    std::int32_t lb;
    std::int32_t rb;
    std::uint64_t weight;  // total remaining residues (GST-build cost proxy)
  };
  [[nodiscard]] std::vector<Bucket> prefix_buckets(
      std::uint32_t prefix_len) const;

  /// Parallel bucket scan: SA chunks are scanned concurrently, then buckets
  /// split by a chunk boundary are stitched back together (contiguous ranges
  /// with equal prefix keys). The overload above is its one-lane case, and
  /// the output is identical at every pool size.
  [[nodiscard]] std::vector<Bucket> prefix_buckets(std::uint32_t prefix_len,
                                                   exec::Pool& pool) const;

 private:
  const ConcatText* text_;
  const std::vector<std::int32_t>* sa_;
  const std::vector<std::int32_t>* lcp_;
  MaximalMatchParams params_;
};

}  // namespace pclust::suffix
