// `pclust chaos` — seeded fault-injection sweep over the whole pipeline.
//
// Every seed builds one deterministic fault scenario, runs the pipeline
// under it, and asserts the resilience contract:
//
//   class 0  order-preserving faults (drop + duplicate + straggler) on
//            EVERY simulated phase at p = 2 — family output must be
//            BIT-IDENTICAL to the fault-free serial run.
//   class 1  worker crashes in CCD and DSD at the sweep topology — both
//            phases are confluent, so output must be bit-identical to the
//            fault-free run at the SAME topology.
//   class 2  worker crash inside RR — RR heals to a valid (but possibly
//            different) redundancy removal, so the contract is the
//            alignment-work identity, well-formed disjoint families, and a
//            validating run report.
//   class 3  mid-write kill: a checkpoint is truncated between two runs —
//            --resume must roll back to the last-good generation (or
//            recompute), quarantine the damaged file, and still produce
//            the fault-free serial output.
//   class 4  checkpoint corruption: a seeded bit flip anywhere in the file
//            — same contract as class 3, and never an abort.
//   class 5  requeue storm: every worker but one crashes at the SAME
//            virtual instant (one heartbeat window) in both CCD and DSD —
//            the master requeues everything at once onto the lone
//            survivor; families and the alignment-work identity must match
//            the fault-free run bit for bit.
//   class 6  sub-master crash under the hierarchical protocol
//            (--masters >= 2, needs p >= masters + 2): the root replays
//            the dead shard's forwarded event log and re-homes its
//            workers; output must still equal the fault-free run (which is
//            itself bit-identical to the flat protocol's output).
//   class 7  artifact I/O storm: seeded ENOSPC/EIO faults at the IoEnv
//            layer, cycling over artifact classes. Checkpoint storms and
//            telemetry storms must leave families bit-identical (drop /
//            roll-back-and-continue policies); a sticky families or
//            report storm must fail with a structured, class-attributed
//            IoError and leave no torn artifact behind; transient faults
//            must heal through the retry layer (io.retries > 0).
//   class 8  memory-budget degradation: --mem-budget at 55–65 % of the
//            unconstrained peak — the run must match the unconstrained
//            one bit for bit (families, ledger, every work counter but
//            memgov.degradations) with a validating report. One lane has
//            no lever: it logs no event and keeps the unconstrained
//            high-water; several lanes log only bgg+dsd/shrink-drain.
//
// Every run also captures the merge-provenance ledger. Wherever the family
// contract is bit-identity (classes 0, 1, 3–8), the rendered ledger must
// equal the fault-free golden's byte for byte — the canonical-derivation
// claim under fire; where healing may change the output (class 2), the
// ledger must still cover every final-partition merge exactly once.
//
// Exits 0 when every seed upholds its contract, 1 otherwise.
#include <cstdio>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.hpp"
#include "commands.hpp"
#include "pclust/mpsim/fault_plan.hpp"
#include "pclust/pipeline/pipeline.hpp"
#include "pclust/pipeline/report.hpp"
#include "pclust/prov/ledger.hpp"
#include "pclust/quality/cluster_io.hpp"
#include "pclust/seq/fasta.hpp"
#include "pclust/synth/generator.hpp"
#include "pclust/util/checkpoint.hpp"
#include "pclust/util/io.hpp"
#include "pclust/util/json.hpp"
#include "pclust/util/memgov.hpp"
#include "pclust/util/metrics.hpp"
#include "pclust/util/options.hpp"
#include "pclust/util/telemetry.hpp"

namespace pclust::cli {

namespace {

bool same_families(const std::vector<pipeline::Family>& a,
                   const std::vector<pipeline::Family>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].members != b[i].members ||
        a[i].mean_degree != b[i].mean_degree ||
        a[i].density != b[i].density) {
      return false;
    }
  }
  return true;
}

/// attempted + skipped == promising - duplicate, per phase. The invariant
/// must hold under every fault plan: healing may re-align pairs, but every
/// admitted candidate is resolved exactly once.
bool work_identity(const pace::EngineCounters& c, std::string* why) {
  if (c.aligned_pairs + c.filtered_pairs != c.candidates()) {
    *why = "work identity violated: aligned " +
           std::to_string(c.aligned_pairs) + " + filtered " +
           std::to_string(c.filtered_pairs) + " != candidates " +
           std::to_string(c.candidates());
    return false;
  }
  return true;
}

bool families_well_formed(const std::vector<pipeline::Family>& families,
                          std::string* why) {
  std::vector<char> used;
  for (std::size_t f = 0; f < families.size(); ++f) {
    const auto& m = families[f].members;
    if (m.empty()) {
      *why = "family " + std::to_string(f) + " is empty";
      return false;
    }
    if (f > 0 && families[f - 1].members.size() < m.size()) {
      *why = "families not sorted by descending size";
      return false;
    }
    for (const seq::SeqId id : m) {
      if (used.size() <= id) used.resize(id + 1, 0);
      if (used[id]) {
        *why = "sequence " + std::to_string(id) + " in two families";
        return false;
      }
      used[id] = 1;
    }
  }
  return true;
}

/// Every registry counter but memgov.degradations must read as in the
/// golden run: a memory budget may change how many graphs are in flight,
/// never the work done. A counter absent from one side reads 0.
bool same_counters(const util::MetricsSnapshot& got,
                   const util::MetricsSnapshot& golden, std::string* why) {
  const auto differs = [&](const std::string& name) {
    if (name == "memgov.degradations" ||
        got.counter(name) == golden.counter(name)) {
      return false;
    }
    *why = "counter " + name + " is " + std::to_string(got.counter(name)) +
           ", the unconstrained run's " + std::to_string(golden.counter(name));
    return true;
  };
  for (const auto& [name, value] : got.counters) {
    if (differs(name)) return false;
  }
  for (const auto& [name, value] : golden.counters) {
    if (differs(name)) return false;
  }
  return true;
}

/// The healed run's provenance must (a) cover every final-partition merge
/// exactly once and (b) — since its family output equals the golden's —
/// render to the golden ledger's exact bytes.
bool ledger_matches(const pipeline::PipelineResult& result,
                    const std::string& golden_ledger, std::string* why) {
  if (!result.provenance.counts.identity_holds()) {
    *why = "provenance merge identity violated under faults";
    return false;
  }
  if (prov::render_ledger(result.provenance) != golden_ledger) {
    *why = "provenance ledger differs from the fault-free golden's bytes";
    return false;
  }
  return true;
}

bool report_validates(const pipeline::PipelineResult& result,
                      const pipeline::PipelineConfig& config,
                      std::string* why) {
  const std::string doc =
      pipeline::render_report(result, config, {"chaos", "<synthetic>"});
  std::string error;
  if (!pipeline::validate_report(util::parse_json(doc), &error)) {
    *why = "run report failed validation: " + error;
    return false;
  }
  return true;
}

void truncate_file(const std::filesystem::path& path, double keep_fraction) {
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(
      path, static_cast<std::uintmax_t>(static_cast<double>(size) *
                                        keep_fraction));
}

void flip_bit(const std::filesystem::path& path, std::uint64_t seed) {
  const auto size = std::filesystem::file_size(path);
  const std::uint64_t offset = (seed * 2654435761ull) % size;
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.get(byte);
  byte = static_cast<char>(byte ^ (1 << (seed % 8)));
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(byte);
}

bool phase_logged(const pipeline::PipelineResult& result,
                  const std::string& entry) {
  for (const std::string& e : result.phase_log) {
    if (e == entry) return true;
  }
  return false;
}

}  // namespace

int cmd_chaos(int argc, const char* const* argv) {
  util::Options options;
  options.define("seeds", "16", "number of fault scenarios to sweep");
  options.define("n", "300", "synthetic sample size (ignored with --input)");
  options.define("input", "", "FASTA input (default: synthesize a sample)");
  options.define("processors", "4",
                 "simulated ranks for RR+CCD in the crash classes (>= 3)");
  options.define("dsd-processors", "3",
                 "simulated ranks for batched DSD (>= 3 enables DSD "
                 "crashes)");
  options.define("masters", "2",
                 "sub-master count for the hierarchical crash class "
                 "(skipped when --processors < masters + 2)");
  options.define("threads", "1",
                 "real worker threads for every run (0 = all cores)");
  options.define("workdir", "",
                 "scratch directory for checkpoint scenarios (default: a "
                 "temp dir; removed afterwards unless given explicitly)");
  options.define("telemetry-out", "",
                 "stream JSONL run telemetry for the whole sweep to this "
                 "path; every per-seed pipeline run contributes its phase "
                 "records (inspect with `pclust monitor`)");
  options.define("telemetry-interval", "1",
                 "wall seconds between telemetry samples");
  define_simd_option(options);
  options.parse(argc, argv);
  if (options.help_requested()) {
    std::fputs(options
                   .usage("pclust chaos",
                          "Sweep seeded fault plans (crashes, message "
                          "drops/duplicates, stragglers, damaged "
                          "checkpoints) over the pipeline and verify the "
                          "self-healing guarantees.")
                   .c_str(),
               stdout);
    return 0;
  }

  const auto seeds = static_cast<std::uint64_t>(
      get_int_in(options, "seeds", 1, 10'000));
  const int processors =
      static_cast<int>(get_int_in(options, "processors", 3, 1 << 10));
  const int dsd_processors =
      static_cast<int>(get_int_in(options, "dsd-processors", 2, 1 << 10));
  const int masters =
      static_cast<int>(get_int_in(options, "masters", 2, 1 << 10));
  const auto threads =
      static_cast<unsigned>(get_int_in(options, "threads", 0, 1 << 16));
  apply_simd_option(options);

  seq::SequenceSet sequences;
  if (const std::string input = options.get("input"); !input.empty()) {
    require_readable(input);
    seq::read_fasta_file(input, sequences);
  } else {
    synth::DatasetSpec spec;
    spec.num_sequences = static_cast<std::uint32_t>(
        get_int_in(options, "n", 10, 1'000'000));
    spec.num_families = std::max<std::uint32_t>(4, spec.num_sequences / 40);
    spec.redundant_fraction = 0.15;
    spec.noise_fraction = 0.2;
    spec.seed = 42;
    sequences = synth::generate(spec).sequences;
  }
  std::printf("chaos: %zu sequences, %llu seeds, rr/ccd p=%d, dsd p=%d\n",
              sequences.size(), static_cast<unsigned long long>(seeds),
              processors, dsd_processors);

  util::telemetry::TelemetryConfig telemetry;
  telemetry.path = options.get("telemetry-out");
  telemetry.command = "chaos";
  telemetry.interval = get_double_in(options, "telemetry-interval", 0.01, 3600.0);
  if (!telemetry.path.empty()) {
    require_writable(telemetry.path);
    util::telemetry::enable(telemetry);
  }

  const bool own_workdir = options.get("workdir").empty();
  const std::filesystem::path workdir =
      own_workdir ? std::filesystem::temp_directory_path() /
                        "pclust-chaos-scratch"
                  : std::filesystem::path(options.get("workdir"));

  pipeline::PipelineConfig base;
  base.threads = threads;
  // Capture merge provenance on every run: the sweep doubles as the
  // ledger's determinism gauntlet (byte-equality wherever families are).
  base.provenance = true;

  // Fault-free goldens: the serial reference and the sweep topology.
  util::metrics().reset();
  const pipeline::PipelineResult golden_serial = pipeline::run(sequences, base);
  // The unconstrained capacity peak calibrates the memory-budget class:
  // class 8 budgets a fraction of this and must still land bit-identically,
  // its work counters included.
  const std::uint64_t golden_high_water = util::governor().high_water();
  const util::MetricsSnapshot golden_metrics = util::metrics().snapshot();
  pipeline::PipelineConfig parallel_config = base;
  parallel_config.processors = processors;
  parallel_config.dsd_processors = dsd_processors;
  util::metrics().reset();
  const pipeline::PipelineResult golden_parallel =
      pipeline::run(sequences, parallel_config);
  const std::string golden_serial_ledger =
      prov::render_ledger(golden_serial.provenance);
  const std::string golden_parallel_ledger =
      prov::render_ledger(golden_parallel.provenance);
  std::printf("chaos: goldens computed (serial: %zu families, p=%d: %zu; "
              "ledgers %s)\n",
              golden_serial.families.size(), processors,
              golden_parallel.families.size(),
              golden_serial_ledger == golden_parallel_ledger
                  ? "identical across topologies"
                  : "DIFFER across topologies");
  if (golden_serial_ledger != golden_parallel_ledger) {
    std::fprintf(stderr,
                 "chaos: fault-free provenance ledgers differ between "
                 "serial and p=%d — canonical derivation is broken\n",
                 processors);
    return 1;
  }

  std::uint64_t failures = 0;
  const auto report_failure = [&](std::uint64_t seed, const char* label,
                                  const std::string& why) {
    ++failures;
    std::fprintf(stderr, "chaos: seed %llu (%s): FAIL — %s\n",
                 static_cast<unsigned long long>(seed), label, why.c_str());
  };

  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    const int klass = static_cast<int>(seed % 9);
    std::string why;
    util::metrics().reset();

    if (klass == 5) {
      // Requeue storm: all workers but the last crash at the same virtual
      // instant — one heartbeat window — in CCD and (when wide enough)
      // DSD. The master absorbs the simultaneous failure burst, requeues
      // every outstanding pair onto the lone survivor, and the confluent
      // phases still land bit-identically.
      mpsim::FaultPlan ccd_plan;
      ccd_plan.seed = seed;
      const double at = static_cast<double>(seed % 3) * 1e-3;
      for (int w = 1; w < processors - 1; ++w) {
        ccd_plan.crashes.push_back({w, at});
      }
      mpsim::FaultPlan dsd_plan;
      dsd_plan.seed = seed;
      if (dsd_processors >= 3) {
        for (int w = 1; w < dsd_processors - 1; ++w) {
          dsd_plan.crashes.push_back({w, 0.0});
        }
      } else {
        dsd_plan.duplicate_probability = 0.3;
      }
      pipeline::PipelineConfig cfg = parallel_config;
      cfg.ccd_fault_plan = &ccd_plan;
      cfg.dsd_fault_plan = &dsd_plan;
      const pipeline::PipelineResult result = pipeline::run(sequences, cfg);
      if (!same_families(result.families, golden_parallel.families)) {
        report_failure(seed, "requeue-storm",
                       "families differ from the fault-free run at p=" +
                           std::to_string(processors));
      } else if (!work_identity(result.rr.counters, &why) ||
                 !work_identity(result.ccd.counters, &why) ||
                 !ledger_matches(result, golden_parallel_ledger, &why) ||
                 !report_validates(result, cfg, &why)) {
        report_failure(seed, "requeue-storm", why);
      } else if (result.ccd.run.crashed_ranks.size() !=
                 static_cast<std::size_t>(processors - 2)) {
        report_failure(seed, "requeue-storm",
                       "expected " + std::to_string(processors - 2) +
                           " simultaneous CCD crashes, saw " +
                           std::to_string(result.ccd.run.crashed_ranks.size()));
      } else {
        std::printf("chaos: seed %llu (requeue-storm): ok, %d simultaneous "
                    "crashes healed bit-identically (%llu pairs requeued)\n",
                    static_cast<unsigned long long>(seed), processors - 2,
                    static_cast<unsigned long long>(
                        result.ccd.run.counter("pairs_requeued")));
      }
      continue;
    }
    if (klass == 6) {
      if (processors < masters + 2) {
        std::printf("chaos: seed %llu (submaster-crash): skipped "
                    "(--processors %d < masters %d + 2)\n",
                    static_cast<unsigned long long>(seed), processors,
                    masters);
        continue;
      }
      // Hierarchical protocol with a sub-master death: the root replays
      // the dead shard's forwarded events and re-homes its orphans. The
      // hierarchical fault-free output equals the flat golden, so the
      // healed run must match it bit for bit too.
      pipeline::PipelineConfig cfg = parallel_config;
      cfg.pace.masters = masters;
      mpsim::FaultPlan ccd_plan;
      ccd_plan.seed = seed;
      ccd_plan.crashes.push_back(
          {1 + static_cast<int>(seed % masters),
           static_cast<double>(seed % 3) * 1e-3});
      cfg.ccd_fault_plan = &ccd_plan;
      mpsim::FaultPlan dsd_plan;
      dsd_plan.seed = seed;
      if (dsd_processors >= masters + 2) {
        dsd_plan.crashes.push_back({1 + static_cast<int>(seed % masters),
                                    0.0});
      } else {
        dsd_plan.duplicate_probability = 0.3;
      }
      cfg.dsd_fault_plan = &dsd_plan;
      const pipeline::PipelineResult result = pipeline::run(sequences, cfg);
      if (!same_families(result.families, golden_parallel.families)) {
        report_failure(seed, "submaster-crash",
                       "families differ from the fault-free flat run at p=" +
                           std::to_string(processors));
      } else if (!work_identity(result.rr.counters, &why) ||
                 !work_identity(result.ccd.counters, &why) ||
                 !ledger_matches(result, golden_parallel_ledger, &why) ||
                 !report_validates(result, cfg, &why)) {
        report_failure(seed, "submaster-crash", why);
      } else if (result.ccd.run.counter("submasters_failed") == 0) {
        report_failure(seed, "submaster-crash",
                       "no sub-master failure was recorded in the CCD run");
      } else {
        std::printf("chaos: seed %llu (submaster-crash): ok, root replayed "
                    "the shard log (%llu workers re-homed)\n",
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(
                        result.ccd.run.counter("workers_rehomed")));
      }
      continue;
    }
    if (klass == 7) {
      // Artifact I/O storm at the IoEnv layer. The scenario cycles over
      // artifact classes and sticky/transient faults; the per-class
      // degradation policy decides the contract for each.
      const std::uint64_t idx = seed / 9;
      static const struct {
        util::io::ArtifactClass cls;
        const char* name;
      } kTargets[] = {
          {util::io::ArtifactClass::kCheckpoint, "checkpoint"},
          {util::io::ArtifactClass::kTelemetry, "telemetry"},
          {util::io::ArtifactClass::kFamilies, "families"},
          {util::io::ArtifactClass::kReport, "report"},
      };
      const auto& target = kTargets[idx % 4];
      const bool sticky = (idx / 4) % 2 == 0;
      const std::string spec = std::string(target.name) +
                               (seed % 2 == 0 ? ":enospc@1" : ":eio@1") +
                               (sticky ? ":sticky" : "");
      const util::io::IoFaultPlan plan = util::io::IoFaultPlan::parse(spec);
      const std::string label = "io-storm[" + spec + "]";
      const std::filesystem::path dir =
          workdir / ("seed-" + std::to_string(seed));
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);

      if (target.cls == util::io::ArtifactClass::kCheckpoint) {
        // Checkpoint writes roll back and continue: even a sticky storm
        // must not change the families, and a clean --resume afterwards
        // (no checkpoints survived) recomputes the same output.
        pipeline::PipelineConfig cfg = base;
        cfg.checkpoint_dir = dir.string();
        util::io::io().configure(plan);
        try {
          const pipeline::PipelineResult result =
              pipeline::run(sequences, cfg);
          util::io::io().reset();
          const std::uint64_t write_failures =
              util::metrics().counter("checkpoint.write_failures").value();
          const std::uint64_t retries =
              util::metrics().counter("io.retries").value();
          if (!same_families(result.families, golden_serial.families)) {
            report_failure(seed, label.c_str(),
                           "families differ under a checkpoint storm");
          } else if (!ledger_matches(result, golden_serial_ledger, &why)) {
            report_failure(seed, label.c_str(), why);
          } else if (sticky && write_failures == 0) {
            report_failure(seed, label.c_str(),
                           "sticky storm recorded no checkpoint write "
                           "failures");
          } else if (!sticky && (write_failures != 0 || retries == 0)) {
            report_failure(seed, label.c_str(),
                           "transient fault did not heal through the retry "
                           "layer");
          } else {
            util::metrics().reset();
            cfg.resume = true;
            const pipeline::PipelineResult resumed =
                pipeline::run(sequences, cfg);
            if (!same_families(resumed.families, golden_serial.families)) {
              report_failure(seed, label.c_str(),
                             "post-storm --resume diverged from the serial "
                             "run");
            } else if (!ledger_matches(resumed, golden_serial_ledger,
                                       &why)) {
              report_failure(seed, label.c_str(),
                             "post-storm --resume: " + why);
            } else {
              std::printf("chaos: seed %llu (%s): ok, run + resume "
                          "bit-identical (%llu checkpoint writes failed)\n",
                          static_cast<unsigned long long>(seed),
                          label.c_str(),
                          static_cast<unsigned long long>(write_failures));
            }
          }
        } catch (const std::exception& e) {
          util::io::io().reset();
          report_failure(seed, label.c_str(),
                         std::string("checkpoint storm aborted the run: ") +
                             e.what());
        }
        continue;
      }

      if (target.cls == util::io::ArtifactClass::kTelemetry) {
        if (!telemetry.path.empty()) {
          std::printf("chaos: seed %llu (%s): skipped (global "
                      "--telemetry-out stream is active)\n",
                      static_cast<unsigned long long>(seed), label.c_str());
          continue;
        }
        // Telemetry appends are drop-and-count: a storm must never touch
        // the families, only the stream.
        util::telemetry::TelemetryConfig tc;
        tc.path = (dir / "telemetry.jsonl").string();
        tc.command = "chaos";
        tc.interval = 3600.0;
        util::io::io().configure(plan);
        util::telemetry::enable(tc);
        try {
          const pipeline::PipelineResult result =
              pipeline::run(sequences, base);
          util::telemetry::disable();
          util::io::io().reset();
          const std::uint64_t dropped =
              util::metrics().counter("io.dropped.telemetry").value();
          if (!same_families(result.families, golden_serial.families)) {
            report_failure(seed, label.c_str(),
                           "families differ under a telemetry storm");
          } else if (dropped == 0) {
            report_failure(seed, label.c_str(),
                           "storm on the telemetry stream dropped no "
                           "records");
          } else {
            std::printf("chaos: seed %llu (%s): ok, %llu records dropped, "
                        "families untouched\n",
                        static_cast<unsigned long long>(seed), label.c_str(),
                        static_cast<unsigned long long>(dropped));
          }
        } catch (const std::exception& e) {
          util::telemetry::disable();
          util::io::io().reset();
          report_failure(seed, label.c_str(),
                         std::string("telemetry storm aborted the run: ") +
                             e.what());
        }
        continue;
      }

      // Families / report: primary artifacts are fatal-on-failure. A
      // sticky storm must surface a class-attributed IoError and leave no
      // torn file; a transient fault must heal through the retry layer.
      const pipeline::PipelineResult result = pipeline::run(sequences, base);
      const bool is_report = target.cls == util::io::ArtifactClass::kReport;
      const std::filesystem::path out =
          dir / (is_report ? "report.json" : "families.tsv");
      const pipeline::ReportInfo info{"chaos", "<synthetic>"};
      const auto write_artifact = [&](const std::filesystem::path& path) {
        if (is_report) {
          pipeline::write_report(path, result, base, info);
        } else {
          quality::write_clustering_file(path.string(),
                                         result.family_clustering(),
                                         sequences);
        }
      };
      util::io::io().configure(plan);
      if (sticky) {
        std::string message;
        try {
          write_artifact(out);
        } catch (const util::io::IoError& e) {
          message = e.what();
        }
        util::io::io().reset();
        const std::string want = std::string("io[") + target.name + "]";
        if (message.empty()) {
          report_failure(seed, label.c_str(),
                         "sticky storm did not fail the write");
        } else if (message.find(want) == std::string::npos) {
          report_failure(seed, label.c_str(),
                         "error lacks the artifact class: " + message);
        } else if (std::filesystem::exists(out)) {
          report_failure(seed, label.c_str(),
                         "failed commit left a torn artifact behind");
        } else {
          write_artifact(out);  // fault-free retry by the operator
          std::printf("chaos: seed %llu (%s): ok, structured failure "
                      "(%s), clean rewrite succeeded\n",
                      static_cast<unsigned long long>(seed), label.c_str(),
                      want.c_str());
        }
      } else {
        try {
          write_artifact(out);
          util::io::io().reset();
          const std::uint64_t retries =
              util::metrics().counter("io.retries").value();
          // Verify the healed artifact is whole. The report embeds the
          // live metrics registry (including the retry just recorded), so
          // a byte-compare against a re-render is only valid for the
          // families file; the report is checked semantically instead.
          bool whole = true;
          std::string defect;
          if (is_report) {
            std::ifstream in(out, std::ios::binary);
            const std::string doc((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
            whole = pipeline::validate_report(util::parse_json(doc), &defect);
          } else {
            const std::filesystem::path clean = out.string() + ".clean";
            write_artifact(clean);
            std::ifstream a(out, std::ios::binary);
            std::ifstream b(clean, std::ios::binary);
            const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                                      std::istreambuf_iterator<char>());
            const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                                      std::istreambuf_iterator<char>());
            whole = bytes_a == bytes_b;
            defect = "healed artifact differs from a clean write";
          }
          if (retries == 0) {
            report_failure(seed, label.c_str(),
                           "transient fault healed without a recorded "
                           "retry");
          } else if (!whole) {
            report_failure(seed, label.c_str(), defect);
          } else {
            std::printf("chaos: seed %llu (%s): ok, transient fault healed "
                        "(%llu retries), artifact verified whole\n",
                        static_cast<unsigned long long>(seed), label.c_str(),
                        static_cast<unsigned long long>(retries));
          }
        } catch (const std::exception& e) {
          util::io::io().reset();
          report_failure(seed, label.c_str(),
                         std::string("transient fault was not healed: ") +
                             e.what());
        }
      }
      continue;
    }
    if (klass == 8) {
      // Memory-budget degradation: 55–65 % of the unconstrained peak. The
      // one lever, narrowing the pooled drain, changes no work: families,
      // ledger and counters equal the golden's. One lane never narrows, so
      // it logs nothing and peaks where the golden did.
      const double frac = 0.55 + 0.05 * static_cast<double>((seed / 9) % 3);
      pipeline::PipelineConfig cfg = base;
      cfg.mem_budget_bytes = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 static_cast<double>(golden_high_water) * frac));
      const std::string label =
          "mem-budget[" + std::to_string(static_cast<int>(frac * 100)) +
          "%]";
      const bool one_lane =
          threads == 1 ||
          (threads == 0 && std::thread::hardware_concurrency() <= 1);
      try {
        const pipeline::PipelineResult result = pipeline::run(sequences, cfg);
        const util::MetricsSnapshot after = util::metrics().snapshot();
        const auto events = util::governor().degradation_log();
        const auto unexpected = std::find_if(
            events.begin(), events.end(), [&](const util::DegradationEvent& e) {
              return one_lane || e.phase != "bgg+dsd" ||
                     e.action != "shrink-drain";
            });
        if (!same_families(result.families, golden_serial.families)) {
          report_failure(seed, label.c_str(),
                         "budgeted families differ from the unconstrained "
                         "run");
        } else if (!same_counters(after, golden_metrics, &why) ||
                   !ledger_matches(result, golden_serial_ledger, &why) ||
                   !report_validates(result, cfg, &why)) {
          report_failure(seed, label.c_str(), why);
        } else if (unexpected != events.end()) {
          report_failure(seed, label.c_str(),
                         "unexpected degradation event " + unexpected->phase +
                             "/" + unexpected->action);
        } else if (one_lane &&
                   util::governor().high_water() != golden_high_water) {
          report_failure(seed, label.c_str(),
                         "one-lane high-water " +
                             std::to_string(util::governor().high_water()) +
                             " differs from the unconstrained " +
                             std::to_string(golden_high_water));
        } else {
          std::printf("chaos: seed %llu (%s): ok, bit-identical through %zu "
                      "degradation action(s), peak %llu / budget %llu\n",
                      static_cast<unsigned long long>(seed), label.c_str(),
                      events.size(),
                      static_cast<unsigned long long>(
                          util::governor().high_water()),
                      static_cast<unsigned long long>(cfg.mem_budget_bytes));
        }
      } catch (const util::MemoryBudgetExceeded& e) {
        report_failure(seed, label.c_str(),
                       std::string("degradation failed to keep the run "
                                   "under budget: ") +
                           e.what());
      }
      continue;
    }

    if (klass == 0) {
      // Order-preserving faults on every phase at p = 2: the protocol's
      // round structure makes drops, duplicates, and stragglers invisible
      // to the verdict order, so even RR must match the serial run bit
      // for bit.
      mpsim::FaultPlan plan;
      plan.seed = seed;
      plan.drop_probability = 0.2 + 0.05 * static_cast<double>(seed % 3);
      plan.duplicate_probability = 0.2;
      plan.straggler_factor = {1.0, 2.0 + static_cast<double>(seed % 4)};
      mpsim::FaultPlan dsd_plan = plan;
      pipeline::PipelineConfig cfg = base;
      cfg.processors = 2;
      cfg.dsd_processors = 2;
      cfg.rr_fault_plan = &plan;
      cfg.ccd_fault_plan = &plan;
      cfg.dsd_fault_plan = &dsd_plan;
      const pipeline::PipelineResult result = pipeline::run(sequences, cfg);
      if (!same_families(result.families, golden_serial.families)) {
        report_failure(seed, "order-preserving@p2",
                       "families differ from the fault-free serial run");
      } else if (!work_identity(result.rr.counters, &why) ||
                 !work_identity(result.ccd.counters, &why) ||
                 !ledger_matches(result, golden_serial_ledger, &why) ||
                 !report_validates(result, cfg, &why)) {
        report_failure(seed, "order-preserving@p2", why);
      } else {
        std::printf("chaos: seed %llu (order-preserving@p2): ok, "
                    "bit-identical to serial\n",
                    static_cast<unsigned long long>(seed));
      }
    } else if (klass == 1) {
      // CCD + DSD worker crashes (plus a straggler): both phases apply
      // verdicts confluently, so healing must reproduce the fault-free
      // output of the same topology exactly.
      mpsim::FaultPlan ccd_plan;
      ccd_plan.seed = seed;
      ccd_plan.crashes.push_back(
          {1 + static_cast<int>(seed % (processors - 1)),
           static_cast<double>(seed % 3) * 1e-3});
      ccd_plan.straggler_factor.resize(processors, 1.0);
      ccd_plan.straggler_factor[processors - 1] = 3.0;
      mpsim::FaultPlan dsd_plan;
      dsd_plan.seed = seed;
      if (dsd_processors >= 3) {
        dsd_plan.crashes.push_back(
            {1 + static_cast<int>(seed % (dsd_processors - 1)), 0.0});
      } else {
        dsd_plan.duplicate_probability = 0.3;
      }
      pipeline::PipelineConfig cfg = parallel_config;
      cfg.ccd_fault_plan = &ccd_plan;
      cfg.dsd_fault_plan = &dsd_plan;
      const pipeline::PipelineResult result = pipeline::run(sequences, cfg);
      if (!same_families(result.families, golden_parallel.families)) {
        report_failure(seed, "ccd+dsd-crash",
                       "families differ from the fault-free run at p=" +
                           std::to_string(processors));
      } else if (!work_identity(result.rr.counters, &why) ||
                 !work_identity(result.ccd.counters, &why) ||
                 !ledger_matches(result, golden_parallel_ledger, &why) ||
                 !report_validates(result, cfg, &why)) {
        report_failure(seed, "ccd+dsd-crash", why);
      } else {
        std::printf("chaos: seed %llu (ccd+dsd-crash): ok, healed "
                    "bit-identically (%llu streams adopted)\n",
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(
                        result.ccd.run.counter("streams_adopted") +
                        result.dsd_run.counter("streams_adopted")));
      }
    } else if (klass == 2) {
      // RR worker crash: RR's verdict application is order-dependent, so
      // the healed output may legitimately differ — the contract is a
      // valid, complete, internally consistent run.
      mpsim::FaultPlan rr_plan;
      rr_plan.seed = seed;
      rr_plan.crashes.push_back(
          {1 + static_cast<int>(seed % (processors - 1)),
           static_cast<double>(seed % 4) * 5e-4});
      pipeline::PipelineConfig cfg = parallel_config;
      cfg.rr_fault_plan = &rr_plan;
      const pipeline::PipelineResult result = pipeline::run(sequences, cfg);
      if (result.families.empty() && !golden_parallel.families.empty()) {
        report_failure(seed, "rr-crash", "run produced no families");
      } else if (!work_identity(result.rr.counters, &why) ||
                 !work_identity(result.ccd.counters, &why) ||
                 !families_well_formed(result.families, &why) ||
                 !report_validates(result, cfg, &why)) {
        report_failure(seed, "rr-crash", why);
      } else if (!result.provenance.counts.identity_holds()) {
        // RR healing may change the partition, so no golden to compare —
        // but whatever partition emerged must still be fully evidenced.
        report_failure(seed, "rr-crash",
                       "provenance merge identity violated on the healed "
                       "partition");
      } else {
        std::printf("chaos: seed %llu (rr-crash): ok, healed to a valid "
                    "clustering (%zu families)\n",
                    static_cast<unsigned long long>(seed),
                    result.families.size());
      }
    } else {
      // Classes 3 + 4: damage a checkpoint between runs, then --resume.
      // Two fault-free runs first, so a last-good backup generation
      // exists; the damaged primary must be quarantined and either rolled
      // back or recomputed — never an abort, always the serial output.
      const char* label = klass == 3 ? "mid-write-kill" : "corrupt-ckpt";
      const std::filesystem::path dir =
          workdir / ("seed-" + std::to_string(seed));
      std::filesystem::remove_all(dir);
      pipeline::PipelineConfig cfg = base;
      cfg.checkpoint_dir = dir.string();
      (void)pipeline::run(sequences, cfg);
      util::metrics().reset();
      (void)pipeline::run(sequences, cfg);  // rotates gen 1 to *.1

      const char* const names[] = {"rr.ckpt", "ccd.ckpt", "families.ckpt"};
      const std::filesystem::path victim = dir / names[(seed / 5) % 3];
      if (klass == 3) {
        // A kill mid-write leaves a short file (tmp+rename makes this
        // impossible for the primary in real runs, but a torn disk or a
        // kill during an overwrite on a non-atomic filesystem does not).
        truncate_file(victim, 0.25 * static_cast<double>(seed % 4));
      } else {
        flip_bit(victim, seed);
      }

      util::metrics().reset();
      cfg.resume = true;
      try {
        const pipeline::PipelineResult result = pipeline::run(sequences, cfg);
        const std::string stem = victim.stem().string();  // "rr", "ccd", ...
        const std::string phase = stem == "families" ? "families" : stem;
        if (!same_families(result.families, golden_serial.families)) {
          report_failure(seed, label,
                         "resumed families differ from the serial run");
        } else if (!std::filesystem::exists(
                       util::checkpoint_quarantine_path(victim))) {
          report_failure(seed, label,
                         "damaged checkpoint was not quarantined to " +
                             util::checkpoint_quarantine_path(victim)
                                 .string());
        } else if (!phase_logged(result, phase + ":resumed-backup")) {
          report_failure(seed, label,
                         "expected " + phase +
                             ":resumed-backup in the phase log");
        } else if (!ledger_matches(result, golden_serial_ledger, &why) ||
                   !report_validates(result, cfg, &why)) {
          report_failure(seed, label, why);
        } else {
          std::printf("chaos: seed %llu (%s): ok, %s quarantined and "
                      "rolled back\n",
                      static_cast<unsigned long long>(seed), label,
                      victim.filename().c_str());
        }
      } catch (const util::CheckpointError& e) {
        report_failure(seed, label,
                       std::string("resume aborted on damaged checkpoint: ") +
                           e.what());
      }
    }
  }

  if (own_workdir) {
    std::error_code ec;
    std::filesystem::remove_all(workdir, ec);
  }
  if (!telemetry.path.empty()) {
    util::telemetry::disable();
    std::printf("wrote telemetry to %s\n", telemetry.path.c_str());
  }
  if (failures != 0) {
    std::fprintf(stderr, "chaos: %llu of %llu seeds FAILED\n",
                 static_cast<unsigned long long>(failures),
                 static_cast<unsigned long long>(seeds));
    return 1;
  }
  std::printf("chaos: all %llu seeds upheld the resilience contract\n",
              static_cast<unsigned long long>(seeds));
  return 0;
}

}  // namespace pclust::cli
