// Structured run reports: one JSON document per pipeline run capturing
// phase times and provenance, the engine's alignment-work identity
// (candidate_pairs == attempted + skipped_by_cluster_filter per phase — the
// paper's ">99.9 % of pairs never aligned" claim made checkable), fault and
// healing activity, Table-I quantities, and a full metrics-registry
// snapshot.
//
// Schema (stable; validated by validate_report and `pclust report-check`):
//   { "schema": "pclust-run-report", "version": 1,
//     "command": str, "input": {...}, "config": {...},
//     "phases": [ {name, seconds, source, ...engine counters, speculative,
//                  gated_directions (rr only)} ],
//     "alignment": {candidate_pairs, attempted, skipped_by_cluster_filter,
//                   duplicate_pairs, skip_ratio},
//     "faults": {...}, "resume": {...}, "table1": {...},
//     "rank_times": {rr|ccd|dsd: [ {rank, level, total, busy, comm,
//                                   idle} ]},
//     "metrics": {counters, gauges, histograms} }
//
// Each rank_times entry carries the level its simulated run recorded
// (mpsim::RunResult::rank_levels), not one derived from the configured
// master count: a DSD stage that fell back to the flat protocol because
// its ranks could not host the master tree is labelled master/worker.
#pragma once

#include <filesystem>
#include <string>

#include "pclust/pipeline/pipeline.hpp"

namespace pclust::util {
class JsonValue;
}

namespace pclust::pipeline {

/// Run context the library cannot know by itself.
struct ReportInfo {
  std::string command;  // CLI subcommand, e.g. "families"
  std::string input;    // input path (or description)
  /// Where the merge-provenance ledger was written (--provenance-out);
  /// empty when no ledger file was requested. The report's `provenance`
  /// section appears whenever capture ran, with or without a file.
  std::string provenance_path;
};

/// Render the report document for a finished run. Reads the process-wide
/// metrics registry — call after run() returns, before the next run resets
/// the registry.
[[nodiscard]] std::string render_report(const PipelineResult& result,
                                        const PipelineConfig& config,
                                        const ReportInfo& info);

/// Render and write to @p path. Throws std::runtime_error on I/O failure.
void write_report(const std::filesystem::path& path,
                  const PipelineResult& result, const PipelineConfig& config,
                  const ReportInfo& info);

/// Validate a parsed report against the schema above, including the
/// per-phase and total alignment-work identities. Returns true when valid;
/// otherwise false with a diagnostic in @p error (if given).
[[nodiscard]] bool validate_report(const util::JsonValue& report,
                                   std::string* error = nullptr);

}  // namespace pclust::pipeline
