// Union–find (disjoint-set union) with union by size and path halving.
//
// This is the clustering backbone of both the PaCE master (transitive-
// closure merging of overlap clusters, §IV-B of the paper) and the Shingle
// algorithm's final component-reporting step (§IV-D). find/union are
// near-constant amortized time (inverse Ackermann; Tarjan 1975, ref [29]).
#pragma once

#include <cstdint>
#include <vector>

#include "pclust/util/memsize.hpp"

namespace pclust::dsu {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n = 0);

  /// Reset to n singleton sets.
  void reset(std::size_t n);

  [[nodiscard]] std::size_t size() const { return parent_.size(); }

  /// Representative of x's set. Applies path halving (mutates for speed but
  /// never changes the partition, so it is logically const).
  [[nodiscard]] std::uint32_t find(std::uint32_t x) const;

  /// Merge the sets of a and b; returns true if they were distinct.
  bool merge(std::uint32_t a, std::uint32_t b);

  [[nodiscard]] bool same(std::uint32_t a, std::uint32_t b) const {
    return find(a) == find(b);
  }

  /// Number of elements in x's set.
  [[nodiscard]] std::uint32_t set_size(std::uint32_t x) const {
    return size_[find(x)];
  }

  /// Number of disjoint sets.
  [[nodiscard]] std::size_t set_count() const { return set_count_; }

  /// Extract all sets as vectors of members, sorted by descending size then
  /// ascending smallest member (deterministic). Sets smaller than
  /// @p min_size are omitted.
  [[nodiscard]] std::vector<std::vector<std::uint32_t>> extract_sets(
      std::size_t min_size = 1) const;

  /// Snapshot the parent forest for serialization. The exact pointers
  /// depend on merge/find history, but the encoded PARTITION does not.
  [[nodiscard]] const std::vector<std::uint32_t>& parents() const {
    return parent_;
  }

  /// Rebuild from a parents() snapshot: recomputes set sizes and the set
  /// count from the forest. Throws std::invalid_argument if any parent
  /// index is out of range or the pointers contain a cycle.
  void restore(std::vector<std::uint32_t> parents);

  /// Heap footprint: the parent forest and per-root set sizes — O(n), the
  /// linear-space argument for transitive-closure clustering.
  [[nodiscard]] util::MemoryBreakdown memory_usage() const;

 private:
  mutable std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
  std::size_t set_count_ = 0;
};

}  // namespace pclust::dsu
