// Min-wise independent permutation shingling (Broder et al. [6], as used by
// the Shingle algorithm [12]).
//
// A "(s, c)-shingle set" of a vertex v is built by applying c pseudo-random
// permutations to Γ(v) and taking the s minimum elements under each: two
// vertices that share a substantial fraction of their out-links then share
// at least one shingle with high probability. Permutation k is realized as
// the keyed hash x -> mix64((x+1) * key_k); a shingle's value is a hash of
// its canonical (sorted) element tuple, so equal element sets produce equal
// shingle values regardless of which permutation selected them. Keys are
// odd, so each permutation is a bijection on vertex ids: hashes never tie.
//
// Sketch is the one selection core. Both Shingle passes and shingle_set
// run on it; it owns its scratch, so a pool lane that keeps one Sketch
// shingles vertex after vertex without touching the heap. OwnerTable is
// the one value -> first-owner table: a Sketch keeps each value's lowest
// permutation through it, and Pass II each second-level shingle's first
// node.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace pclust::shingle {

/// Open-addressed map from a shingle value to the first owner claimed for
/// it: one flat slot array, linear probing, load at most 1/2.
class OwnerTable {
 public:
  /// The first owner of @p value; @p owner becomes it if the value is new.
  std::uint32_t claim(std::uint64_t value, std::uint32_t owner) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    Slot& slot = find(value);
    if (slot.owner == 0) {
      slot = {value, owner + 1};
      ++size_;
    }
    return slot.owner - 1;
  }

  /// Forgets every value; the slot array stays allocated.
  void clear();

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::uint64_t bytes() const;

 private:
  struct Slot {
    std::uint64_t value;
    std::uint32_t owner;  // owner + 1; 0 marks an empty slot
  };

  /// The slot holding @p value, or the empty slot where it belongs.
  Slot& find(std::uint64_t value) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = (value ^ (value >> 32)) & mask;
    while (slots_[i].owner != 0 && slots_[i].value != value) {
      i = (i + 1) & mask;
    }
    return slots_[i];
  }

  void grow();

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// The c permutation keys of one pass under @p seed: computed once per
/// pass and shared by every link set it shingles.
[[nodiscard]] std::vector<std::uint64_t> permutation_keys(std::uint64_t seed,
                                                          std::uint32_t c);

/// One distinct shingle of a link set: its canonical value and the lowest
/// permutation that selected it (Sketch::select re-derives its elements).
struct SketchEntry {
  std::uint64_t value = 0;
  std::uint32_t perm = 0;
};

/// Reusable scratch for the (s, c)-shingling of many link sets under one
/// key set (which must outlive it). Not thread-safe: one per lane.
class Sketch {
 public:
  Sketch(std::uint32_t s, std::span<const std::uint64_t> keys);

  /// The distinct shingles of @p links (need not be sorted; elements must
  /// be distinct), ascending by value; empty when |links| < s or s == 0.
  /// Valid until the next call on this Sketch.
  [[nodiscard]] std::span<const SketchEntry> shingles(
      std::span<const std::uint32_t> links);

  /// The elements of the shingle permutation @p perm selects from @p links
  /// (|links| >= s): its s minimal elements, sorted by vertex id. Valid
  /// until the next select(); the last shingles() result stays intact.
  [[nodiscard]] std::span<const std::uint32_t> select(
      std::span<const std::uint32_t> links, std::uint32_t perm);

 private:
  struct Ranked {
    std::uint64_t hash;
    std::uint32_t vertex;
  };

  std::uint32_t s_;
  std::span<const std::uint64_t> keys_;
  std::vector<Ranked> smallest_;  // the s smallest hashes, a max-heap
  std::vector<std::uint32_t> elements_;
  std::vector<SketchEntry> entries_;
  OwnerTable seen_;  // value -> lowest permutation that selected it
};

struct Shingle {
  std::uint64_t value = 0;                 // canonical hash of the elements
  std::vector<std::uint32_t> elements;     // sorted, exactly s vertices
};

/// Compute the (s, c)-shingle set of @p links (need not be sorted; elements
/// must be distinct). Returns the DISTINCT shingles (value-deduplicated,
/// ascending by value). Empty when links.size() < s.
[[nodiscard]] std::vector<Shingle> shingle_set(
    std::span<const std::uint32_t> links, std::uint32_t s, std::uint32_t c,
    std::uint64_t seed);

}  // namespace pclust::shingle
