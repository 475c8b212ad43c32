#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

// Heap-footprint accounting for the core data structures. Every structure
// with a non-trivial footprint exposes
//
//   MemoryBreakdown memory_usage() const;
//
// listing its heap-allocated parts (nodes, edges, buckets, payload bytes)
// by *capacity*, i.e. what the allocator actually holds, not just what is
// in use. A breakdown is what a util::MemoryCharge (memgov.hpp) holds: the
// charge keeps the structure's live parts in the governor's ledger and
// publishes them as `mem.[<phase>.]<name>.<part>` gauges whose high-water
// marks are the peak footprints the ledger held, even when a structure is
// built once per component. The run report's `memory` section is
// assembled from these gauges plus the process peak RSS, which is what
// makes the paper's linear-space claim (bytes / n stays flat as n grows)
// checkable from report artifacts alone.

namespace pclust::util {

/// Itemized heap footprint of one data structure.
struct MemoryBreakdown {
  /// Structure name as it appears in gauge keys, e.g. "suffix_index".
  /// Must not contain '.'; parts must not either (the report splits gauge
  /// keys on dots to recover structure/part).
  std::string name;
  std::vector<std::pair<std::string, std::uint64_t>> parts;

  MemoryBreakdown() = default;
  explicit MemoryBreakdown(std::string structure_name)
      : name(std::move(structure_name)) {}

  MemoryBreakdown& add(std::string_view part, std::uint64_t bytes) {
    parts.emplace_back(std::string(part), bytes);
    return *this;
  }

  /// Merge another breakdown in as a single part (its total).
  MemoryBreakdown& add(std::string_view part, const MemoryBreakdown& nested) {
    return add(part, nested.total());
  }

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const auto& [part, bytes] : parts) sum += bytes;
    return sum;
  }
};

/// Allocator-held bytes of a vector (capacity, not size).
template <typename T>
[[nodiscard]] std::uint64_t vector_bytes(const std::vector<T>& v) {
  return static_cast<std::uint64_t>(v.capacity()) * sizeof(T);
}

/// Heap bytes behind a string. Capacities at or below the SSO buffer live
/// inside the object and cost no heap.
[[nodiscard]] std::uint64_t string_bytes(const std::string& s);

/// Current resident set size in bytes (VmRSS); 0 where /proc is absent.
[[nodiscard]] std::uint64_t current_rss_bytes();

/// Peak resident set size in bytes (VmHWM); 0 where /proc is absent.
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace pclust::util
