// Min-wise independent permutation shingling (Broder et al. [6], as used by
// the Shingle algorithm [12]).
//
// A "(s, c)-shingle set" of a vertex v is built by applying c pseudo-random
// permutations to Γ(v) and taking the s minimum elements under each: two
// vertices that share a substantial fraction of their out-links then share
// at least one shingle with high probability. Permutation k is realized as
// the keyed hash x -> mix64((x+1) * key_k); a shingle's value is a hash of
// its canonical (sorted) element tuple, so equal element sets produce equal
// shingle values regardless of which permutation selected them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pclust::shingle {

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

/// Value-only variant used by the second pass (elements are not needed).
[[nodiscard]] std::vector<std::uint64_t> shingle_values(
    std::span<const std::uint32_t> links, std::uint32_t s, std::uint32_t c,
    std::uint64_t seed);

}  // namespace pclust::shingle
