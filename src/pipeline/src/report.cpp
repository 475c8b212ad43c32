#include "pclust/pipeline/report.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include <cmath>
#include <map>

#include "pclust/align/simd.hpp"
#include "pclust/util/io.hpp"
#include "pclust/util/json.hpp"
#include "pclust/util/memgov.hpp"
#include "pclust/util/memsize.hpp"
#include "pclust/util/metrics.hpp"
#include "pclust/util/telemetry.hpp"

namespace pclust::pipeline {

namespace {

/// Provenance of @p phase from the phase log ("computed" when checkpoints
/// were off and the log is empty).
std::string phase_source(const PipelineResult& result, const char* phase) {
  const std::string prefix = std::string(phase) + ":";
  for (const std::string& entry : result.phase_log) {
    if (entry.compare(0, prefix.size(), prefix) == 0) {
      return entry.substr(prefix.size());
    }
  }
  return "computed";
}

void emit_phase(util::JsonWriter& w, const char* name, double seconds,
                const std::string& source,
                const pace::EngineCounters* work) {
  w.begin_object();
  w.key("name").value(name);
  w.key("seconds").value(seconds);
  w.key("source").value(source);
  if (work) {
    w.key("promising_pairs").value(work->promising_pairs);
    w.key("duplicate_pairs").value(work->duplicate_pairs);
    w.key("candidate_pairs").value(work->candidates());
    w.key("attempted").value(work->aligned_pairs);
    w.key("skipped_by_cluster_filter").value(work->filtered_pairs);
    w.key("skip_ratio").value(work->skip_ratio());
    w.key("speculative").value(work->speculative_pairs);
  }
  w.end_object();
}

void emit_crashed_ranks(util::JsonWriter& w, const PipelineResult& result) {
  w.begin_array();
  for (const int rank : result.rr.run.crashed_ranks) w.value(rank);
  for (const int rank : result.ccd.run.crashed_ranks) w.value(rank);
  for (const int rank : result.dsd_run.crashed_ranks) w.value(rank);
  w.end_array();
}

/// Every fault/healing event of the run, each attributed to its phase
/// (simulated phases prefix their own label; checkpoint recovery events
/// come from the pipeline's recovery log).
void emit_fault_events(util::JsonWriter& w, const PipelineResult& result) {
  w.begin_array();
  const auto emit_run = [&](const mpsim::RunResult& run) {
    const std::string prefix = run.phase + ": ";
    for (const std::string& event : run.fault_events) {
      // Protocol notes already carry the phase label; runtime-level events
      // (planned crashes) do not.
      const bool prefixed =
          !run.phase.empty() && event.compare(0, prefix.size(), prefix) == 0;
      w.value(run.phase.empty() || prefixed ? event : prefix + event);
    }
  };
  emit_run(result.rr.run);
  emit_run(result.ccd.run);
  emit_run(result.dsd_run);
  for (const std::string& event : result.recovery_log) {
    w.value("checkpoint: " + event);
  }
  w.end_array();
}

/// `memory` section: process RSS plus the per-phase / per-structure peaks
/// collected from `mem.*` gauges. Gauge keys are `mem.rss.<phase>` (RSS
/// sampled at a phase boundary) or `mem.<structure...>.<part>` where
/// `<part>` "total" is the whole structure; `<structure>` may itself carry
/// a phase prefix ("rr.suffix_index"). The high-water mark (`max`) is what
/// matters: structures are rebuilt per component, and the report wants the
/// peak instance.
void emit_memory(util::JsonWriter& w, const util::MetricsSnapshot& snapshot) {
  std::map<std::string, std::uint64_t> phases;
  std::map<std::string, std::uint64_t> totals;
  std::map<std::string, std::map<std::string, std::uint64_t>> parts;
  for (const auto& [name, g] : snapshot.gauges) {
    if (name.rfind("mem.rss.", 0) == 0) {
      phases[name.substr(8)] = g.max;
    } else if (name.rfind("mem.", 0) == 0) {
      const std::size_t dot = name.rfind('.');
      if (dot <= 4) continue;  // malformed key; skip rather than misfile
      const std::string structure = name.substr(4, dot - 4);
      const std::string part = name.substr(dot + 1);
      if (part == "total") {
        totals[structure] = g.max;
      } else {
        parts[structure][part] = g.max;
      }
    }
  }

  w.begin_object();
  w.key("rss_current_bytes").value(util::current_rss_bytes());
  w.key("rss_peak_bytes").value(util::peak_rss_bytes());
  w.key("phases").begin_object();
  for (const auto& [phase, bytes] : phases) w.key(phase).value(bytes);
  w.end_object();
  w.key("structures").begin_object();
  for (const auto& [structure, total] : totals) {
    w.key(structure).begin_object();
    w.key("peak_total_bytes").value(total);
    const auto it = parts.find(structure);
    if (it != parts.end()) {
      w.key("parts").begin_object();
      for (const auto& [part, bytes] : it->second) w.key(part).value(bytes);
      w.end_object();
    }
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

/// `rank_times` section: the simulated phases' per-rank virtual-time
/// decomposition (empty arrays for serial phases). busy + comm + idle ==
/// total per rank, which report-check asserts. Each entry names the
/// topology level its run recorded ("master"/"worker" flat;
/// "root"/"sub-master"/"worker" hierarchical), so the analyzer can
/// separate admit load from align load, and a DSD stage that fell back to
/// the flat protocol reads as flat.
void emit_rank_times(util::JsonWriter& w, const PipelineResult& result) {
  w.begin_object();
  const auto emit_run = [&w](const char* key, const mpsim::RunResult& run) {
    w.key(key).begin_array();
    for (std::size_t r = 0; r < run.rank_times.size(); ++r) {
      w.begin_object();
      w.key("rank").value(static_cast<std::uint64_t>(r));
      w.key("level").value(run.rank_levels[r]);
      w.key("total").value(run.rank_times[r]);
      w.key("busy").value(run.rank_breakdown[r].busy);
      w.key("comm").value(run.rank_breakdown[r].comm);
      w.key("idle").value(run.rank_breakdown[r].idle);
      w.end_object();
    }
    w.end_array();
  };
  emit_run("rr", result.rr.run);
  emit_run("ccd", result.ccd.run);
  emit_run("dsd", result.dsd_run);
  w.end_object();
}

/// `hierarchy` section: the two-level master tree's shape and its
/// protocol/healing counters (all zero in flat runs, where the section
/// still appears so consumers need no presence checks).
void emit_hierarchy(util::JsonWriter& w, const PipelineConfig& config,
                    const util::MetricsSnapshot& snapshot) {
  const int masters = std::max(1, config.pace.masters);
  const auto both = [&](const char* key) {
    return snapshot.counter(std::string("pace.") + key) +
           snapshot.counter(std::string("dsd.") + key);
  };
  w.begin_object();
  w.key("masters").value(masters);
  w.key("hierarchical").value(masters >= 2);
  w.key("events_forwarded").value(both("events_forwarded"));
  w.key("events_applied").value(both("events_applied"));
  w.key("events_synced").value(both("events_synced"));
  w.key("submasters_failed").value(both("submasters_failed"));
  w.key("submasters_timed_out").value(both("submasters_timed_out"));
  w.key("workers_rehomed").value(both("workers_rehomed"));
  w.key("streams_rerouted").value(both("streams_rerouted"));
  w.key("streams_surrendered").value(both("streams_surrendered"));
  w.end_object();
}

// ---------------------------------------------------------------------------
// Validation helpers
// ---------------------------------------------------------------------------

bool fail(std::string* error, const std::string& what) {
  if (error) *error = what;
  return false;
}

bool check_identity(const util::JsonValue& obj, const std::string& where,
                    std::string* error) {
  const std::uint64_t candidates = obj.at("candidate_pairs").as_u64();
  const std::uint64_t attempted = obj.at("attempted").as_u64();
  const std::uint64_t skipped =
      obj.at("skipped_by_cluster_filter").as_u64();
  if (attempted + skipped != candidates) {
    return fail(error, where + ": attempted (" + std::to_string(attempted) +
                           ") + skipped_by_cluster_filter (" +
                           std::to_string(skipped) +
                           ") != candidate_pairs (" +
                           std::to_string(candidates) + ")");
  }
  const double ratio = obj.at("skip_ratio").as_number();
  if (ratio < 0.0 || ratio > 1.0) {
    return fail(error, where + ": skip_ratio out of [0, 1]");
  }
  // Speculative alignments were re-checked into the skipped count, so they
  // can never outnumber it (absent in reports that predate the field).
  if (const util::JsonValue* speculative = obj.find("speculative");
      speculative && speculative->as_u64() > skipped) {
    return fail(error, where + ": speculative (" +
                           std::to_string(speculative->as_u64()) +
                           ") > skipped_by_cluster_filter (" +
                           std::to_string(skipped) + ")");
  }
  return true;
}

}  // namespace

std::string render_report(const PipelineResult& result,
                          const PipelineConfig& config,
                          const ReportInfo& info) {
  const util::MetricsSnapshot snapshot = util::metrics().snapshot();
  const pace::EngineCounters& rr = result.rr.counters;
  const pace::EngineCounters& ccd = result.ccd.counters;
  const pace::EngineCounters total{
      rr.promising_pairs + ccd.promising_pairs,
      rr.duplicate_pairs + ccd.duplicate_pairs,
      rr.filtered_pairs + ccd.filtered_pairs,
      rr.aligned_pairs + ccd.aligned_pairs,
      rr.speculative_pairs + ccd.speculative_pairs};

  util::JsonWriter w;
  w.begin_object();
  w.key("schema").value("pclust-run-report");
  w.key("version").value(1);
  w.key("command").value(info.command);

  w.key("input").begin_object();
  w.key("path").value(info.input);
  w.key("sequences").value(static_cast<std::uint64_t>(
      result.input_sequences));
  w.end_object();

  w.key("config").begin_object();
  w.key("processors").value(config.processors);
  w.key("threads").value(config.threads);
  w.key("dsd_processors").value(config.dsd_processors);
  w.key("masters").value(std::max(1, config.pace.masters));
  w.key("psi").value(config.pace.psi);
  w.key("band").value(config.pace.band);
  w.key("rr_band").value(config.rr_band);
  w.key("min_component").value(config.min_component);
  w.key("checkpoint_dir").value(config.checkpoint_dir);
  w.key("resume").value(config.resume);
  w.key("simd").value(align::isa_name(align::current_isa()));
  const auto injects = [](const mpsim::FaultPlan* plan) {
    return plan != nullptr && !plan->empty();
  };
  w.key("faults_injected")
      .value(injects(config.rr_fault_plan) || injects(config.ccd_fault_plan) ||
             injects(config.dsd_fault_plan));
  w.end_object();

  w.key("phases").begin_array();
  emit_phase(w, "rr", result.rr_seconds, phase_source(result, "rr"), &rr);
  emit_phase(w, "ccd", result.ccd_seconds, phase_source(result, "ccd"),
             &ccd);
  emit_phase(w, "bgg+dsd", result.bgg_dsd_seconds,
             phase_source(result, "families"), nullptr);
  w.end_array();

  w.key("alignment").begin_object();
  w.key("promising_pairs").value(total.promising_pairs);
  w.key("duplicate_pairs").value(total.duplicate_pairs);
  w.key("candidate_pairs").value(total.candidates());
  w.key("attempted").value(total.aligned_pairs);
  w.key("skipped_by_cluster_filter").value(total.filtered_pairs);
  w.key("skip_ratio").value(total.skip_ratio());
  w.end_object();

  w.key("faults").begin_object();
  w.key("crashed_ranks");
  emit_crashed_ranks(w, result);
  const auto healing = [&](const char* key) {
    return snapshot.counter(std::string("pace.") + key) +
           snapshot.counter(std::string("dsd.") + key);
  };
  w.key("workers_failed").value(healing("workers_failed"));
  w.key("workers_timed_out").value(healing("workers_timed_out"));
  w.key("pairs_requeued").value(healing("pairs_requeued"));
  w.key("streams_adopted").value(healing("streams_adopted"));
  w.key("link_timeout_retries").value(healing("link_retries"));
  w.key("io_retries").value(snapshot.counter("io.retries"));
  w.key("checkpoints_quarantined")
      .value(snapshot.counter("checkpoint.quarantined"));
  w.key("checkpoint_rollbacks")
      .value(snapshot.counter("checkpoint.rollbacks"));
  w.key("events");
  emit_fault_events(w, result);
  w.end_object();

  w.key("resume").begin_object();
  w.key("requested").value(config.resume);
  w.key("phase_log").begin_array();
  for (const std::string& entry : result.phase_log) w.value(entry);
  w.end_array();
  w.end_object();

  w.key("table1").begin_object();
  w.key("input_sequences")
      .value(static_cast<std::uint64_t>(result.input_sequences));
  w.key("non_redundant_sequences")
      .value(static_cast<std::uint64_t>(result.non_redundant_sequences));
  w.key("components_min_size")
      .value(static_cast<std::uint64_t>(result.components_min_size));
  w.key("dense_subgraph_count")
      .value(static_cast<std::uint64_t>(result.dense_subgraph_count));
  w.key("sequences_in_subgraphs")
      .value(static_cast<std::uint64_t>(result.sequences_in_subgraphs));
  w.key("mean_degree").value(result.mean_degree);
  w.key("mean_density").value(result.mean_density);
  w.key("largest_subgraph")
      .value(static_cast<std::uint64_t>(result.largest_subgraph));
  w.end_object();

  w.key("timing").begin_object();
  w.key("rr_seconds").value(result.rr_seconds);
  w.key("ccd_seconds").value(result.ccd_seconds);
  w.key("bgg_dsd_seconds").value(result.bgg_dsd_seconds);
  w.key("dsd_simulated_seconds").value(result.dsd_run.makespan);
  w.end_object();

  // `telemetry` provenance: present only when a stream was active while
  // the report was rendered, so a report can say "this run also produced
  // telemetry at <path>" and how much of it.
  if (const util::telemetry::TelemetryStatus tele = util::telemetry::status();
      tele.enabled) {
    w.key("telemetry").begin_object();
    w.key("path").value(tele.path);
    w.key("interval").value(tele.interval);
    w.key("records").value(tele.records);
    w.key("samples").value(tele.samples);
    w.key("warnings").value(tele.warnings);
    w.key("stalls").value(tele.stalls);
    w.key("fatal").value(tele.fatal);
    w.end_object();
  }

  w.key("memory");
  emit_memory(w, snapshot);

  // `degradation`: what the memory governor gave up to stay inside
  // --mem-budget. Present only for budgeted runs; an empty events array
  // means the budget was never under pressure.
  if (util::governor().budgeted()) {
    w.key("degradation").begin_object();
    w.key("budget_bytes").value(util::governor().budget());
    w.key("high_water_bytes").value(util::governor().high_water());
    w.key("events").begin_array();
    for (const util::DegradationEvent& e : util::governor().degradation_log()) {
      w.begin_object();
      w.key("phase").value(e.phase);
      w.key("action").value(e.action);
      w.key("detail").value(e.detail);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  // `provenance`: the merge-provenance ledger's tallies (--provenance).
  // `complete` is the merge identity — every union-find merge that survived
  // into the final partition is covered by exactly one evidence edge —
  // and validate_report treats a false value as a validation failure.
  if (config.provenance) {
    const prov::LedgerCounts& c = result.provenance.counts;
    w.key("provenance").begin_object();
    if (!info.provenance_path.empty()) {
      w.key("path").value(info.provenance_path);
    }
    w.key("sequences").value(result.provenance.sequences);
    w.key("edges").begin_object()
        .key("rr").value(c.rr_edges)
        .key("ccd").value(c.ccd_edges)
        .key("dsd").value(c.dsd_edges)
        .key("total").value(c.total_edges())
        .end_object();
    w.key("rules").begin_object()
        .key("containment").value(c.rule_containment)
        .key("overlap").value(c.rule_overlap)
        .key("B_d").value(c.rule_bd)
        .key("B_m").value(c.rule_bm)
        .end_object();
    w.key("merges").begin_object()
        .key("rr").value(c.rr_merges)
        .key("ccd").value(c.ccd_merges)
        .key("dsd").value(c.dsd_merges)
        .end_object();
    w.key("complete").value(c.identity_holds());
    w.end_object();
  }

  w.key("hierarchy");
  emit_hierarchy(w, config, snapshot);

  w.key("rank_times");
  emit_rank_times(w, result);

  w.key("metrics");
  snapshot.to_json(w);
  w.end_object();
  return w.str();
}

void write_report(const std::filesystem::path& path,
                  const PipelineResult& result, const PipelineConfig& config,
                  const ReportInfo& info) {
  const std::string doc = render_report(result, config, info);
  // The operator asked for the report explicitly; losing it is fatal
  // (util::io::IoError, class "report") after the atomic-commit retries.
  util::io::io().commit_file(util::io::ArtifactClass::kReport, path,
                             doc + "\n");
}

bool validate_report(const util::JsonValue& report, std::string* error) {
  try {
    if (!report.is_object()) return fail(error, "report is not an object");
    if (report.at("schema").as_string() != "pclust-run-report") {
      return fail(error, "schema is not pclust-run-report");
    }
    if (report.at("version").as_u64() != 1) {
      return fail(error, "unsupported report version");
    }
    (void)report.at("command").as_string();
    (void)report.at("input").at("path").as_string();
    (void)report.at("config").at("processors").as_number();

    const util::JsonValue& phases = report.at("phases");
    if (!phases.is_array() || phases.array.empty()) {
      return fail(error, "phases must be a non-empty array");
    }
    for (const util::JsonValue& phase : phases.array) {
      const std::string& name = phase.at("name").as_string();
      if (phase.at("seconds").as_number() < 0.0) {
        return fail(error, "phase " + name + ": negative seconds");
      }
      const std::string& source = phase.at("source").as_string();
      if (source != "computed" && source != "resumed" &&
          source != "resumed-partial" && source != "resumed-backup") {
        return fail(error, "phase " + name + ": unknown source " + source);
      }
      if (phase.find("candidate_pairs") != nullptr &&
          !check_identity(phase, "phase " + name, error)) {
        return false;
      }
    }

    if (!check_identity(report.at("alignment"), "alignment", error)) {
      return false;
    }
    if (!report.at("faults").at("crashed_ranks").is_array()) {
      return fail(error, "faults.crashed_ranks must be an array");
    }
    if (const util::JsonValue* events = report.at("faults").find("events")) {
      if (!events->is_array()) {
        return fail(error, "faults.events must be an array");
      }
    }
    if (!report.at("resume").at("phase_log").is_array()) {
      return fail(error, "resume.phase_log must be an array");
    }
    (void)report.at("table1").at("input_sequences").as_u64();

    // `memory`: non-negative byte counts; a structure's parts, when
    // itemized, must cover its peak total (part maxima each dominate the
    // parts of the peak instance, so their sum can only over-count).
    const util::JsonValue& memory = report.at("memory");
    if (memory.at("rss_peak_bytes").as_number() < 0.0 ||
        memory.at("rss_current_bytes").as_number() < 0.0) {
      return fail(error, "memory: negative RSS");
    }
    if (!memory.at("phases").is_object()) {
      return fail(error, "memory.phases must be an object");
    }
    for (const auto& [phase, bytes] : memory.at("phases").object) {
      if (bytes.as_number() < 0.0) {
        return fail(error, "memory.phases." + phase + ": negative bytes");
      }
    }
    const util::JsonValue& structures = memory.at("structures");
    if (!structures.is_object()) {
      return fail(error, "memory.structures must be an object");
    }
    for (const auto& [name, st] : structures.object) {
      const double total = st.at("peak_total_bytes").as_number();
      if (total < 0.0) {
        return fail(error, "memory.structures." + name + ": negative total");
      }
      if (const util::JsonValue* pts = st.find("parts")) {
        if (!pts->is_object()) {
          return fail(error,
                      "memory.structures." + name + ".parts not an object");
        }
        double sum = 0.0;
        for (const auto& [part, bytes] : pts->object) {
          const double b = bytes.as_number();
          if (b < 0.0) {
            return fail(error, "memory.structures." + name + ".parts." +
                                   part + ": negative bytes");
          }
          sum += b;
        }
        if (sum + 0.5 < total) {
          return fail(error, "memory.structures." + name +
                                 ": parts sum below peak_total_bytes");
        }
      }
    }

    // `rank_times`: per-rank virtual-time decomposition. busy + comm +
    // idle must reproduce the rank's total (small relative epsilon for fp
    // accumulation order).
    const util::JsonValue& rank_times = report.at("rank_times");
    if (!rank_times.is_object()) {
      return fail(error, "rank_times must be an object");
    }
    for (const auto& [phase, ranks] : rank_times.object) {
      if (!ranks.is_array()) {
        return fail(error, "rank_times." + phase + " must be an array");
      }
      for (const util::JsonValue& entry : ranks.array) {
        const std::string where =
            "rank_times." + phase + "[rank " +
            std::to_string(entry.at("rank").as_u64()) + "]";
        if (const util::JsonValue* level = entry.find("level")) {
          const std::string& l = level->as_string();
          if (l != "master" && l != "root" && l != "sub-master" &&
              l != "worker") {
            return fail(error, where + ": unknown level " + l);
          }
        }
        const double total = entry.at("total").as_number();
        const double busy = entry.at("busy").as_number();
        const double comm = entry.at("comm").as_number();
        const double idle = entry.at("idle").as_number();
        if (total < 0.0 || busy < 0.0 || comm < 0.0 || idle < 0.0) {
          return fail(error, where + ": negative time");
        }
        const double eps = 1e-9 + 1e-6 * std::abs(total);
        if (std::abs(busy + comm + idle - total) > eps) {
          return fail(error,
                      where + ": busy + comm + idle != total virtual time");
        }
      }
    }

    // `hierarchy` (optional for pre-hierarchy reports): shape sanity and
    // non-negative protocol counters.
    if (const util::JsonValue* hierarchy = report.find("hierarchy")) {
      if (!hierarchy->is_object()) {
        return fail(error, "hierarchy must be an object");
      }
      const double masters = hierarchy->at("masters").as_number();
      if (masters < 1.0) {
        return fail(error, "hierarchy.masters must be >= 1");
      }
      for (const char* key :
           {"events_forwarded", "events_applied", "events_synced",
            "submasters_failed", "submasters_timed_out", "workers_rehomed",
            "streams_rerouted", "streams_surrendered"}) {
        if (const util::JsonValue* v = hierarchy->find(key)) {
          if (v->as_number() < 0.0) {
            return fail(error, std::string("hierarchy.") + key +
                                   ": negative count");
          }
        }
      }
    }

    // `telemetry` (optional — present when a stream was live): a readable
    // path string and non-negative stream counters.
    if (const util::JsonValue* tele = report.find("telemetry")) {
      if (!tele->is_object()) {
        return fail(error, "telemetry must be an object");
      }
      (void)tele->at("path").as_string();
      for (const char* key : {"records", "samples", "warnings", "stalls"}) {
        if (tele->at(key).as_number() < 0.0) {
          return fail(error, std::string("telemetry.") + key +
                                 ": negative count");
        }
      }
    }

    // `degradation` (optional — present for --mem-budget runs): a positive
    // budget and well-formed events. Each event must name one of the
    // governor's output-invariant levers and a real pipeline phase — an
    // unknown action in a report means either schema drift or a lever that
    // was never vetted for output invariance, both worth failing loudly.
    if (const util::JsonValue* degr = report.find("degradation")) {
      if (!degr->is_object()) {
        return fail(error, "degradation must be an object");
      }
      if (degr->at("budget_bytes").as_number() <= 0.0) {
        return fail(error, "degradation.budget_bytes must be positive");
      }
      if (degr->at("high_water_bytes").as_number() < 0.0) {
        return fail(error, "degradation.high_water_bytes: negative");
      }
      const util::JsonValue& events = degr->at("events");
      if (!events.is_array()) {
        return fail(error, "degradation.events must be an array");
      }
      for (const util::JsonValue& e : events.array) {
        const std::string& action = e.at("action").as_string();
        // `stream` stays accepted so reports written by earlier releases,
        // whose BGG stage streamed only under pressure, still validate.
        if (action != "shrink-grain" && action != "shrink-batch" &&
            action != "stream" && action != "spill") {
          return fail(error, "degradation.events: unknown action '" + action +
                                 "' (levers: shrink-grain, shrink-batch, "
                                 "stream, spill)");
        }
        const std::string& phase = e.at("phase").as_string();
        if (phase != "rr" && phase != "ccd" && phase != "bgg+dsd" &&
            phase != "dsd") {
          return fail(error, "degradation.events: unknown phase '" + phase +
                                 "' (expected rr, ccd, bgg+dsd, or dsd)");
        }
        (void)e.at("detail").as_string();
      }
    }

    // `provenance` (optional — present for --provenance runs): per-phase
    // edge/rule/merge tallies that must be internally consistent, and the
    // merge identity itself is ENFORCED: a ledger whose edges do not cover
    // the final partition's union-find merges one-for-one is evidence of a
    // capture bug, not a cosmetic mismatch.
    if (const util::JsonValue* prov_section = report.find("provenance")) {
      if (!prov_section->is_object()) {
        return fail(error, "provenance must be an object");
      }
      const util::JsonValue& edges = prov_section->at("edges");
      const util::JsonValue& rules = prov_section->at("rules");
      const util::JsonValue& merges = prov_section->at("merges");
      const std::uint64_t rr = edges.at("rr").as_u64();
      const std::uint64_t ccd = edges.at("ccd").as_u64();
      const std::uint64_t dsd = edges.at("dsd").as_u64();
      if (edges.at("total").as_u64() != rr + ccd + dsd) {
        return fail(error, "provenance.edges: total != rr + ccd + dsd");
      }
      const std::uint64_t rule_sum = rules.at("containment").as_u64() +
                                     rules.at("overlap").as_u64() +
                                     rules.at("B_d").as_u64() +
                                     rules.at("B_m").as_u64();
      if (rule_sum != rr + ccd + dsd) {
        return fail(error,
                    "provenance.rules: rule tallies do not sum to the edge "
                    "total");
      }
      const util::JsonValue& complete = prov_section->at("complete");
      if (complete.type != util::JsonValue::Type::kBool ||
          !complete.bool_value) {
        return fail(error,
                    "provenance.complete is not true: the evidence edges do "
                    "not cover the final partition's merges one-for-one");
      }
      if (rr != merges.at("rr").as_u64() || ccd != merges.at("ccd").as_u64() ||
          dsd != merges.at("dsd").as_u64()) {
        return fail(error,
                    "provenance: per-phase edge counts differ from the "
                    "expected union-find merge counts");
      }
    }

    const util::JsonValue& metrics = report.at("metrics");
    if (!metrics.at("counters").is_object() ||
        !metrics.at("gauges").is_object() ||
        !metrics.at("histograms").is_object()) {
      return fail(error, "metrics must hold counters/gauges/histograms");
    }
  } catch (const util::JsonError& e) {
    return fail(error, e.what());
  }
  if (error) error->clear();
  return true;
}

}  // namespace pclust::pipeline
