#include "pclust/shingle/minwise.hpp"

#include <algorithm>

#include "pclust/util/rng.hpp"

namespace pclust::shingle {

namespace {

/// Select the s elements of links minimal under the keyed hash; returns
/// them sorted by vertex id (canonical set order).
std::vector<std::uint32_t> min_s(std::span<const std::uint32_t> links,
                                 std::uint32_t s, std::uint64_t key) {
  // (hash, vertex) pairs; partial selection of the s smallest.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ranked;
  ranked.reserve(links.size());
  for (std::uint32_t x : links) {
    ranked.emplace_back(util::mix64((static_cast<std::uint64_t>(x) + 1) * key),
                        x);
  }
  std::partial_sort(ranked.begin(), ranked.begin() + s, ranked.end());
  std::vector<std::uint32_t> out(s);
  for (std::uint32_t i = 0; i < s; ++i) out[i] = ranked[i].second;
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t canonical_value(const std::vector<std::uint32_t>& elements) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t e : elements) h = util::hash_combine(h, e);
  return h;
}

std::uint64_t permutation_key(std::uint64_t seed, std::uint32_t k) {
  // Odd multiplier per permutation; SplitMix expansion of (seed, k).
  util::SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ULL));
  return sm.next() | 1ULL;
}

}  // namespace

std::vector<Shingle> shingle_set(std::span<const std::uint32_t> links,
                                 std::uint32_t s, std::uint32_t c,
                                 std::uint64_t seed) {
  std::vector<Shingle> out;
  if (s == 0 || links.size() < s) return out;
  if (links.size() == s) {
    // Every permutation selects the whole set: a single shingle.
    std::vector<std::uint32_t> all(links.begin(), links.end());
    std::sort(all.begin(), all.end());
    out.push_back(Shingle{canonical_value(all), std::move(all)});
    return out;
  }
  out.reserve(c);
  for (std::uint32_t k = 0; k < c; ++k) {
    auto elements = min_s(links, s, permutation_key(seed, k));
    out.push_back(Shingle{canonical_value(elements), std::move(elements)});
  }
  std::sort(out.begin(), out.end(), [](const Shingle& a, const Shingle& b) {
    return a.value < b.value;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Shingle& a, const Shingle& b) {
                          return a.value == b.value;
                        }),
            out.end());
  return out;
}

std::vector<std::uint64_t> shingle_values(std::span<const std::uint32_t> links,
                                          std::uint32_t s, std::uint32_t c,
                                          std::uint64_t seed) {
  std::vector<std::uint64_t> out;
  for (const Shingle& sh : shingle_set(links, s, c, seed)) {
    out.push_back(sh.value);
  }
  return out;
}

}  // namespace pclust::shingle
