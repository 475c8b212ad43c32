#include <cstdio>

#include <algorithm>
#include <stdexcept>

#include "cli_common.hpp"
#include "commands.hpp"
#include "pclust/align/msa.hpp"
#include "pclust/mpsim/fault_plan.hpp"
#include "pclust/pipeline/pipeline.hpp"
#include "pclust/pipeline/report.hpp"
#include "pclust/quality/cluster_io.hpp"
#include "pclust/seq/fasta.hpp"
#include "pclust/util/io.hpp"
#include "pclust/util/metrics.hpp"
#include "pclust/util/options.hpp"
#include "pclust/util/strings.hpp"
#include "pclust/util/telemetry.hpp"
#include "pclust/util/trace.hpp"

namespace pclust::cli {

int cmd_families(int argc, const char* const* argv) {
  util::Options options;
  options.define("psi", "10", "min exact-match length for candidate pairs");
  options.define("min-family", "5", "dense-subgraph size cutoff");
  options.define("reduction", "bd",
                 "bipartite reduction: bd (global similarity) or bm "
                 "(domain based)");
  options.define("w", "10", "word length for the bm reduction");
  options.define("s", "5", "shingle size s");
  options.define("c", "300", "shingles per vertex c");
  options.define("tau", "0.5", "A~B Jaccard cutoff for bd");
  options.define("band", "32", "CCD alignment band (0 = full DP)");
  options.define("rr-band", "0",
                 "RR containment-alignment band (0 = full DP, the "
                 "default; >0 trades exactness for speed)");
  options.define("processors", "0",
                 "simulated BG/L ranks for RR+CCD (0 = serial)");
  options.define("masters", "1",
                 "master-tree width for simulated CCD/DSD: 1 = the flat "
                 "single-master protocol; N >= 2 adds N sub-masters (ranks "
                 "1..N) under the root, requires --processors >= N + 2 "
                 "(RR always runs flat; results are bit-identical)");
  options.define("dsd-processors", "0",
                 "simulated Xeon ranks for batched DSD (0 = serial)");
  options.define("threads", "1",
                 "real worker threads for every phase (0 = all cores)");
  options.define("out", "", "write families as a clustering file");
  options.define_flag("mask", "SEG-style low-complexity masking of input");
  options.define("show-alignments", "0",
                 "print a consensus alignment for the N largest families");
  options.define("on-bad-residue", "throw",
                 "invalid FASTA residue handling: throw, mask (replace "
                 "with X), or skip (drop the record)");
  options.define("checkpoint-dir", "",
                 "write phase-level checkpoints to this directory");
  options.define_flag("resume",
                      "resume from --checkpoint-dir, skipping completed "
                      "phases (exit 4 on input/config mismatch)");
  options.define("report-out", "",
                 "write a structured JSON run report (phase times, "
                 "alignment-work identity, faults, metrics) to this path");
  options.define("provenance-out", "",
                 "write the merge-provenance ledger to this path: one "
                 "JSONL evidence edge per union-find merge that survived "
                 "into the final families (phase, rule, alignment/shingle "
                 "evidence), byte-identical across --threads/--masters/"
                 "--resume; inspect with `pclust explain`");
  options.define("trace-out", "",
                 "write a Chrome trace-event JSON timeline (load in "
                 "Perfetto / chrome://tracing) to this path");
  options.define("telemetry-out", "",
                 "stream JSONL run telemetry to this path while the "
                 "pipeline executes: periodic samples (metrics deltas, "
                 "RSS, progress/ETA, per-rank busy/comm/idle), watchdog "
                 "warnings, and phase records; inspect live or after the "
                 "run with `pclust monitor`");
  options.define("telemetry-interval", "1",
                 "wall seconds between telemetry samples (also the "
                 "virtual-domain sampling interval of simulated phases)");
  options.define("telemetry-stall", "0",
                 "VIRTUAL-seconds no-progress window that emits a "
                 "deterministic stall warning during simulated phases "
                 "(0 = off; calibrate against a healthy run's "
                 "max_progress_gap)");
  options.define("watchdog-deadline", "0",
                 "WALL-seconds no-progress window after which the run "
                 "aborts with a `fatal` telemetry record and exit 1 "
                 "(0 = off; requires --telemetry-out)");
  options.define("crash", "",
                 "fault injection for simulated RR/CCD: comma-separated "
                 "rank@virtual-seconds crash schedule, e.g. 1@5,3@20 "
                 "(requires --processors >= 2)");
  options.define("straggle", "",
                 "fault injection: comma-separated rank@slowdown compute "
                 "multipliers, e.g. 2@4 (requires --processors >= 2)");
  options.define("submaster-crash", "",
                 "fault injection: crash sub-master i (1-based, i <= "
                 "--masters) at a virtual time, e.g. 1@5,2@20 — the root "
                 "replays its event log and re-homes its workers "
                 "(requires --masters >= 2; CCD phase only — RR runs flat)");
  options.define("submaster-straggle", "",
                 "fault injection: slow down sub-master i by a compute "
                 "multiplier, e.g. 1@4 (requires --masters >= 2; CCD phase "
                 "only)");
  options.define("drop", "0",
                 "fault injection: per-message drop probability in [0, 1) "
                 "for RR/CCD (each drop costs a retransmission delay)");
  options.define("dup", "0",
                 "fault injection: per-message duplicate-delivery "
                 "probability in [0, 1) for RR/CCD");
  options.define("fault-seed", "0",
                 "seed of the per-message drop/duplicate decisions");
  options.define("dsd-crash", "",
                 "fault injection for the simulated DSD phase: "
                 "rank@virtual-seconds crash schedule (requires "
                 "--dsd-processors >= 2; output is unchanged)");
  options.define("dsd-straggle", "",
                 "fault injection for DSD: rank@slowdown multipliers");
  options.define("heartbeat", "0",
                 "master-side liveness timeout in WALL seconds: a worker "
                 "silent this long (after --heartbeat-retries retries with "
                 "exponential backoff) is declared dead and its work "
                 "reassigned (0 = wait forever)");
  options.define("heartbeat-retries", "2",
                 "timed-out receives tolerated before declaring a worker "
                 "dead");
  options.define("heartbeat-max-timeout", "0",
                 "ceiling in WALL seconds on the exponential heartbeat "
                 "backoff (0 = uncapped)");
  options.define("phase-deadline", "0",
                 "per-phase WALL-clock watchdog in seconds: abort the "
                 "phase with an attributed error instead of hanging "
                 "(0 = off)");
  options.define("mem-budget", "",
                 "memory budget for the capacity ledger (e.g. 512m, 2g); "
                 "the run degrades along output-invariant levers under "
                 "pressure and exits resumable (code 5) past 2x budget");
  options.define("io-fault", "",
                 "seeded I/O fault plan, comma-separated "
                 "class:kind@N[:sticky] entries (classes families/"
                 "checkpoint/report/telemetry/trace/log/spill; kinds "
                 "enospc/eio/short/fsync; N=0 targets stream opens)");
  define_simd_option(options);
  options.parse(argc, argv);
  if (options.help_requested() || options.positionals().empty()) {
    std::fputs(options
                   .usage("pclust families <input.fa>",
                          "Identify protein families in a peptide FASTA "
                          "file (four-phase pclust pipeline).")
                   .c_str(),
               stdout);
    return options.help_requested() ? 0 : 2;
  }

  // Validate before touching any input: bad values exit 2, bad paths 3.
  pipeline::PipelineConfig config;
  config.pace.psi = static_cast<std::uint32_t>(
      get_int_in(options, "psi", 1, 10'000));
  config.pace.band =
      static_cast<std::uint32_t>(get_int_in(options, "band", 0, 1 << 20));
  config.rr_band =
      static_cast<std::uint32_t>(get_int_in(options, "rr-band", 0, 1 << 20));
  config.shingle.s1 =
      static_cast<std::uint32_t>(get_int_in(options, "s", 1, 1 << 16));
  config.shingle.c1 =
      static_cast<std::uint32_t>(get_int_in(options, "c", 1, 1 << 20));
  config.shingle.tau = get_double_in(options, "tau", 0.0, 1.0);
  config.shingle.min_size = static_cast<std::uint32_t>(
      get_int_in(options, "min-family", 1, 1 << 20));
  config.min_component = config.shingle.min_size;
  config.processors = static_cast<int>(
      get_int_in(options, "processors", 0, 1 << 16));
  if (config.processors == 1) {
    throw UsageError(
        "--processors 1 is not a valid simulation (master + no workers); "
        "use 0 for the serial path or >= 2 for simulated ranks");
  }
  config.pace.masters =
      static_cast<int>(get_int_in(options, "masters", 1, 1 << 12));
  if (config.pace.masters > 1 &&
      config.processors < config.pace.masters + 2) {
    throw UsageError(
        "--masters " + std::to_string(config.pace.masters) +
        " requires --processors >= " +
        std::to_string(config.pace.masters + 2) +
        " (root + sub-masters + at least one worker)");
  }
  config.mask_low_complexity = options.get_flag("mask");
  config.dsd_processors = static_cast<int>(
      get_int_in(options, "dsd-processors", 0, 1 << 16));
  config.threads = static_cast<unsigned>(
      get_int_in(options, "threads", 0, 1 << 16));
  const std::string reduction = options.get("reduction");
  if (reduction == "bm") {
    config.reduction = bigraph::Reduction::kMatchBased;
    config.bm.w =
        static_cast<std::uint32_t>(get_int_in(options, "w", 1, 1 << 16));
  } else if (reduction != "bd") {
    throw UsageError("unknown reduction '" + reduction +
                     "' (use bd or bm)");
  }

  seq::FastaOptions fasta;
  const std::string bad_residue = options.get("on-bad-residue");
  if (bad_residue == "mask") {
    fasta.on_bad_residue = seq::BadResiduePolicy::kMask;
  } else if (bad_residue == "skip") {
    fasta.on_bad_residue = seq::BadResiduePolicy::kSkipRecord;
  } else if (bad_residue != "throw") {
    throw UsageError("unknown --on-bad-residue '" + bad_residue +
                     "' (use throw, mask, or skip)");
  }
  fasta.log_summary = true;

  config.checkpoint_dir = options.get("checkpoint-dir");
  config.resume = options.get_flag("resume");
  if (config.resume && config.checkpoint_dir.empty()) {
    throw UsageError("--resume requires --checkpoint-dir");
  }

  const int masters = config.pace.masters;
  PaceFaultPlans plans = parse_fault_plan(options, masters);
  const auto fault_seed = static_cast<std::uint64_t>(
      get_int_in(options, "fault-seed", 0, 1LL << 62));
  plans.rr.seed = plans.ccd.seed = fault_seed;
  // CCD's plan holds every flag, so it is empty only when RR's is too.
  if (!plans.ccd.empty()) {
    if (config.processors < 2) {
      throw UsageError(
          "--crash/--straggle/--drop/--dup inject faults into the "
          "simulated machine; they require --processors >= 2");
    }
    plans.rr.validate_protocol(config.processors, 1);
    plans.ccd.validate_protocol(config.processors, masters);
    if (!plans.rr.empty()) config.rr_fault_plan = &plans.rr;
    config.ccd_fault_plan = &plans.ccd;
  }

  mpsim::FaultPlan dsd_plan;
  dsd_plan.seed = fault_seed;
  for (const auto& [rank, at] :
       parse_rank_at(options.get("dsd-crash"), "dsd-crash")) {
    if (rank == 0) {
      throw UsageError(
          "--dsd-crash: rank 0 is the DSD master; crashing it is "
          "unrecoverable");
    }
    if (at < 0.0) throw UsageError("--dsd-crash: time must be >= 0");
    dsd_plan.crashes.push_back({rank, at});
  }
  for (const auto& [rank, factor] :
       parse_rank_at(options.get("dsd-straggle"), "dsd-straggle")) {
    if (rank < 0) throw UsageError("--dsd-straggle: rank must be >= 0");
    if (factor < 1.0) throw UsageError("--dsd-straggle: factor must be >= 1");
    if (dsd_plan.straggler_factor.size() <= static_cast<std::size_t>(rank)) {
      dsd_plan.straggler_factor.resize(static_cast<std::size_t>(rank) + 1,
                                       1.0);
    }
    dsd_plan.straggler_factor[static_cast<std::size_t>(rank)] = factor;
  }
  if (!dsd_plan.empty()) {
    if (config.dsd_processors < 2) {
      throw UsageError(
          "--dsd-crash/--dsd-straggle require --dsd-processors >= 2");
    }
    dsd_plan.validate(config.dsd_processors);
    config.dsd_fault_plan = &dsd_plan;
  }

  config.pace.heartbeat_timeout =
      get_double_in(options, "heartbeat", 0.0, 3600.0);
  config.pace.heartbeat_retries = static_cast<std::uint32_t>(
      get_int_in(options, "heartbeat-retries", 0, 100));
  config.pace.heartbeat_max_timeout =
      get_double_in(options, "heartbeat-max-timeout", 0.0, 3600.0);
  config.pace.phase_deadline =
      get_double_in(options, "phase-deadline", 0.0, 86'400.0);

  if (const std::string budget = options.get("mem-budget"); !budget.empty()) {
    config.mem_budget_bytes = parse_mem_size(budget, "mem-budget");
  }
  util::io::IoFaultPlan io_plan;
  if (const std::string spec = options.get("io-fault"); !spec.empty()) {
    try {
      io_plan = util::io::IoFaultPlan::parse(spec);
    } catch (const std::invalid_argument& err) {
      throw UsageError(std::string("--io-fault: ") + err.what());
    }
  }
  // Installed even when empty: resets per-class ordinals and drop counters
  // so each run's injection schedule starts from write 1.
  util::io::io().configure(io_plan);

  require_readable(options.positionals()[0]);
  if (const std::string out = options.get("out"); !out.empty()) {
    require_writable(out);
  }
  const std::string report_out = options.get("report-out");
  if (!report_out.empty()) require_writable(report_out);
  const std::string provenance_out = options.get("provenance-out");
  if (!provenance_out.empty()) require_writable(provenance_out);
  config.provenance = !provenance_out.empty();
  const std::string trace_out = options.get("trace-out");
  if (!trace_out.empty()) require_writable(trace_out);
  util::telemetry::TelemetryConfig telemetry;
  telemetry.path = options.get("telemetry-out");
  telemetry.command = "families " + options.positionals()[0];
  telemetry.interval = get_double_in(options, "telemetry-interval", 0.01, 3600.0);
  telemetry.virtual_stall_seconds =
      get_double_in(options, "telemetry-stall", 0.0, 1e9);
  telemetry.watchdog_deadline =
      get_double_in(options, "watchdog-deadline", 0.0, 86'400.0);
  if (telemetry.path.empty() && telemetry.watchdog_deadline > 0.0) {
    throw UsageError("--watchdog-deadline requires --telemetry-out");
  }
  if (!telemetry.path.empty()) require_writable(telemetry.path);

  apply_simd_option(options);

  seq::SequenceSet sequences;
  seq::read_fasta_file(options.positionals()[0], sequences, fasta);
  std::printf("loaded %zu sequences from %s\n", sequences.size(),
              options.positionals()[0].c_str());

  // Start instrumentation from a clean slate so the report reflects this
  // run only (the registry is process-wide).
  util::metrics().reset();
  if (!trace_out.empty()) util::trace::enable();
  if (!telemetry.path.empty()) util::telemetry::enable(telemetry);

  const pipeline::PipelineResult result = pipeline::run(sequences, config);

  if (!provenance_out.empty()) {
    // The operator asked for the audit trail; losing it is fatal (exit 3),
    // same policy as a report.
    prov::write_ledger(provenance_out, result.provenance);
    const prov::LedgerCounts& c = result.provenance.counts;
    std::printf(
        "wrote provenance ledger to %s (%llu edges: %llu rr, %llu ccd, "
        "%llu dsd; complete=%s)\n",
        provenance_out.c_str(),
        static_cast<unsigned long long>(c.total_edges()),
        static_cast<unsigned long long>(c.rr_edges),
        static_cast<unsigned long long>(c.ccd_edges),
        static_cast<unsigned long long>(c.dsd_edges),
        c.identity_holds() ? "yes" : "NO");
  }
  if (!report_out.empty()) {
    // While the stream is still open, so the report's telemetry section
    // reflects the live status.
    pipeline::write_report(
        report_out, result, config,
        {"families", options.positionals()[0], provenance_out});
    std::printf("wrote run report to %s\n", report_out.c_str());
  }
  if (!telemetry.path.empty()) {
    util::telemetry::disable();
    std::printf("wrote telemetry to %s\n", telemetry.path.c_str());
  }
  if (!trace_out.empty()) {
    util::trace::write_file(trace_out);
    util::trace::disable();
    std::printf("wrote trace to %s\n", trace_out.c_str());
  }
  std::printf(
      "%zu input -> %zu non-redundant -> %zu components (>=%u) -> %zu "
      "families covering %zu sequences (largest %zu, mean density %.0f%%)\n",
      result.input_sequences, result.non_redundant_sequences,
      result.components_min_size, config.min_component,
      result.families.size(), result.sequences_in_subgraphs,
      result.largest_subgraph, result.mean_density * 100.0);
  std::printf("phase times: RR %s, CCD %s, BGG+DSD %s\n",
              util::format_duration(result.rr_seconds).c_str(),
              util::format_duration(result.ccd_seconds).c_str(),
              util::format_duration(result.bgg_dsd_seconds).c_str());
  if (result.dsd_run.makespan > 0.0) {
    std::printf("simulated batched-DSD makespan: %s on %d ranks\n",
                util::format_duration(result.dsd_run.makespan).c_str(),
                config.dsd_processors);
  }

  if (const std::string out = options.get("out"); !out.empty()) {
    quality::write_clustering_file(out, result.family_clustering(),
                                   sequences);
    std::printf("wrote clustering to %s\n", out.c_str());
  }

  const auto show =
      static_cast<std::size_t>(options.get_int("show-alignments"));
  for (std::size_t f = 0; f < std::min(show, result.families.size()); ++f) {
    const auto& family = result.families[f];
    std::vector<seq::SeqId> members(
        family.members.begin(),
        family.members.begin() +
            static_cast<std::ptrdiff_t>(
                std::min<std::size_t>(family.members.size(), 8)));
    const align::Msa msa =
        align::center_star_msa(sequences, members, align::blosum62());
    std::printf("\nfamily %zu (%zu members, density %.0f%%):\n", f + 1,
                family.members.size(), family.density * 100.0);
    const std::size_t width = std::min<std::size_t>(msa.columns(), 100);
    for (std::size_t r = 0; r < msa.rows.size(); ++r) {
      std::printf("  %-14s %s\n", sequences.name(msa.members[r]).c_str(),
                  msa.rows[r].substr(0, width).c_str());
    }
    std::printf("  %-14s %s\n", "consensus",
                msa.consensus().substr(0, width).c_str());
  }
  return 0;
}

}  // namespace pclust::cli
