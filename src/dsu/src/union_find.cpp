#include "pclust/dsu/union_find.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace pclust::dsu {

UnionFind::UnionFind(std::size_t n) { reset(n); }

void UnionFind::reset(std::size_t n) {
  parent_.resize(n);
  std::iota(parent_.begin(), parent_.end(), 0u);
  size_.assign(n, 1u);
  set_count_ = n;
}

std::uint32_t UnionFind::find(std::uint32_t x) const {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

bool UnionFind::merge(std::uint32_t a, std::uint32_t b) {
  std::uint32_t ra = find(a);
  std::uint32_t rb = find(b);
  if (ra == rb) return false;
  if (size_[ra] < size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  size_[ra] += size_[rb];
  --set_count_;
  return true;
}

void UnionFind::restore(std::vector<std::uint32_t> parents) {
  const std::size_t n = parents.size();
  for (const std::uint32_t parent : parents) {
    if (parent >= n) {
      throw std::invalid_argument(
          "UnionFind::restore: parent index out of range");
    }
  }
  // A valid forest reaches a self-parent root from every node within n
  // steps; anything longer means the snapshot encodes a cycle.
  for (std::uint32_t x = 0; x < n; ++x) {
    std::uint32_t cur = x;
    std::size_t steps = 0;
    while (parents[cur] != cur) {
      cur = parents[cur];
      if (++steps > n) {
        throw std::invalid_argument(
            "UnionFind::restore: parent pointers contain a cycle");
      }
    }
  }
  parent_ = std::move(parents);
  size_.assign(n, 0u);
  set_count_ = 0;
  for (std::uint32_t x = 0; x < n; ++x) {
    const std::uint32_t root = find(x);
    if (size_[root]++ == 0) ++set_count_;
  }
}

std::vector<std::vector<std::uint32_t>> UnionFind::extract_sets(
    std::size_t min_size) const {
  std::vector<std::vector<std::uint32_t>> by_root(parent_.size());
  for (std::uint32_t x = 0; x < parent_.size(); ++x) {
    by_root[find(x)].push_back(x);
  }
  std::vector<std::vector<std::uint32_t>> out;
  for (auto& members : by_root) {
    if (members.size() >= min_size && !members.empty()) {
      out.push_back(std::move(members));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a.front() < b.front();
            });
  return out;
}

util::MemoryBreakdown UnionFind::memory_usage() const {
  util::MemoryBreakdown b("union_find");
  b.add("parents", util::vector_bytes(parent_));
  b.add("set_sizes", util::vector_bytes(size_));
  return b;
}

}  // namespace pclust::dsu
