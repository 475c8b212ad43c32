// The provenance ledger: compact JSONL serialization of evidence edges.
//
// Layout (one JSON document per line):
//   line 1   {"schema":"pclust-provenance","version":1,
//             "sequences":N,"edges":M}
//   lines 2..M+1   one edge each, in canonical derivation order (the line
//             number is the implicit merge ordinal; no schedule-dependent
//             field appears on an edge)
//   last line {"summary":{...}} — per-phase/per-rule edge counts, the
//             expected union-find merge counts, and the merge-identity
//             flag `complete` (edges == merges for every phase).
//
// Files are committed atomically through the process IoEnv under the
// `provenance` artifact class (throw-on-failure policy: a requested audit
// artifact that cannot be persisted is an error, like a report). The
// rendered bytes are a pure function of the Ledger, so byte comparison of
// two ledger files is a complete determinism check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pclust/prov/edge.hpp"
#include "pclust/util/json.hpp"

namespace pclust::prov {

inline constexpr std::string_view kLedgerSchema = "pclust-provenance";
inline constexpr int kLedgerVersion = 1;

/// Per-phase and per-rule tallies plus the merge-identity counts the
/// summary line (and the run report's `provenance` section) carry.
struct LedgerCounts {
  std::uint64_t rr_edges = 0;
  std::uint64_t ccd_edges = 0;
  std::uint64_t dsd_edges = 0;
  std::uint64_t rule_containment = 0;
  std::uint64_t rule_overlap = 0;
  std::uint64_t rule_bd = 0;
  std::uint64_t rule_bm = 0;
  /// Expected union-find merges per phase (derivation-side identity):
  /// RR: #removed sequences; CCD: #survivors - #components;
  /// DSD: sum over graphs of (S1 nodes - raw components).
  std::uint64_t rr_merges = 0;
  std::uint64_t ccd_merges = 0;
  std::uint64_t dsd_merges = 0;

  [[nodiscard]] std::uint64_t total_edges() const {
    return rr_edges + ccd_edges + dsd_edges;
  }
  /// Every final-partition merge covered by exactly one evidence edge?
  [[nodiscard]] bool identity_holds() const {
    return rr_edges == rr_merges && ccd_edges == ccd_merges &&
           dsd_edges == dsd_merges;
  }
};

/// Writes @p counts as the `edges`, `rules`, `merges` and `complete`
/// members of the JSON object open on @p w: the one writer of the tallies
/// for the ledger's summary line and the run report's `provenance` section.
void write_counts(util::JsonWriter& w, const LedgerCounts& counts);

struct Ledger {
  std::uint64_t sequences = 0;      // input-set size (id universe)
  std::vector<Edge> edges;          // canonical derivation order
  LedgerCounts counts;

  /// Recount the per-phase/per-rule tallies from `edges` (the expected
  /// merge counts are the caller's to fill — they come from phase results,
  /// not from the edge list, or the identity check would be vacuous).
  void recount();
};

/// Render one edge as its canonical JSONL line (no trailing newline).
[[nodiscard]] std::string render_edge(const Edge& edge);

/// The most bytes a render_edge() line and its newline take, every field
/// at its widest: writers of edge lines reserve this per edge up front.
inline constexpr std::size_t kMaxEdgeLineBytes = 169;

/// Parse one render_edge() line back; throws std::runtime_error on any
/// malformed input (used by the pipeline's per-phase sidecar files, whose
/// edge lines share the ledger's format).
[[nodiscard]] Edge parse_edge(std::string_view line);

/// Render the full ledger (meta line, edges, summary line), newline
/// terminated. Byte-stable: equal ledgers render to equal bytes.
[[nodiscard]] std::string render_ledger(const Ledger& ledger);

/// Atomically commit render_ledger() bytes to @p path through the IoEnv
/// (ArtifactClass::kProvenance; persistent failure throws util::io::
/// IoError).
void write_ledger(const std::string& path, const Ledger& ledger);

/// Parse a ledger back (strict: schema/version checked, every line must
/// parse, the summary tallies must match the edge list). Throws
/// std::runtime_error with the offending line on any mismatch.
[[nodiscard]] Ledger parse_ledger(std::string_view bytes);

/// Read + parse a ledger file; throws std::runtime_error if unreadable.
[[nodiscard]] Ledger read_ledger(const std::string& path);

}  // namespace pclust::prov
