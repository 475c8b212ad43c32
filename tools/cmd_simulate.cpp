#include <cstdio>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli_common.hpp"
#include "commands.hpp"
#include "pclust/exec/pool.hpp"
#include "pclust/mpsim/fault_plan.hpp"
#include "pclust/mpsim/machine_model.hpp"
#include "pclust/pace/components.hpp"
#include "pclust/pace/redundancy.hpp"
#include "pclust/seq/fasta.hpp"
#include "pclust/synth/presets.hpp"
#include "pclust/util/options.hpp"
#include "pclust/util/strings.hpp"
#include "pclust/util/table.hpp"
#include "pclust/util/telemetry.hpp"

namespace pclust::cli {

int cmd_simulate(int argc, const char* const* argv) {
  util::Options options;
  options.define("n", "2000", "synthetic input size (ignored with a FASTA)");
  options.define("processors", "32,64,128,512",
                 "comma-separated simulated rank counts");
  options.define("machine", "bluegene",
                 "machine model: bluegene or xeon");
  options.define("masters", "1",
                 "master-tree width for the CCD phase: 1 = flat single "
                 "master; N >= 2 adds N sub-masters (ranks 1..N) under the "
                 "root — every simulated rank count must be >= N + 2 (RR "
                 "always runs flat; results are bit-identical)");
  options.define("psi", "10", "min exact-match length");
  options.define("band", "32", "CCD band (RR always runs full DP)");
  options.define("seed", "42", "workload seed");
  options.define("threads", "1",
                 "real worker threads per simulation (0 = all cores)");
  options.define("crash", "",
                 "fault injection: comma-separated rank@virtual-seconds "
                 "crash schedule, e.g. 1@5,3@20");
  options.define("drop", "0",
                 "fault injection: per-message drop probability in [0, 1) "
                 "(dropped copies are retransmitted with a delay)");
  options.define("dup", "0",
                 "fault injection: per-message duplicate-delivery "
                 "probability in [0, 1)");
  options.define("straggle", "",
                 "fault injection: comma-separated rank@slowdown compute "
                 "multipliers, e.g. 2@4");
  options.define("submaster-crash", "",
                 "fault injection: crash sub-master i (1-based, i <= "
                 "--masters) at a virtual time, e.g. 1@5 (requires "
                 "--masters >= 2; CCD phase only — RR runs flat)");
  options.define("submaster-straggle", "",
                 "fault injection: slow down sub-master i by a compute "
                 "multiplier, e.g. 1@4 (requires --masters >= 2)");
  options.define("heartbeat", "0",
                 "master declares a silent worker dead after this many wall "
                 "seconds (0 = wait forever)");
  options.define("fault-seed", "1", "seed for per-message fault decisions");
  options.define("telemetry-out", "",
                 "stream JSONL run telemetry for the whole sweep to this "
                 "path (one phase record pair per p/phase combination); "
                 "inspect with `pclust monitor`");
  options.define("telemetry-interval", "1",
                 "wall seconds between telemetry samples (also the "
                 "virtual-domain sampling interval)");
  define_simd_option(options);
  options.parse(argc, argv);
  if (options.help_requested()) {
    std::fputs(options
                   .usage("pclust simulate [input.fa]",
                          "Replay the RR and CCD phases on the simulated "
                          "distributed-memory machine and report virtual "
                          "run-times per processor count.")
                   .c_str(),
               stdout);
    return 0;
  }

  apply_simd_option(options);

  pace::PaceParams ccd_params;
  ccd_params.psi =
      static_cast<std::uint32_t>(get_int_in(options, "psi", 1, 10'000));
  ccd_params.band =
      static_cast<std::uint32_t>(get_int_in(options, "band", 0, 1 << 20));
  ccd_params.heartbeat_timeout =
      get_double_in(options, "heartbeat", 0.0, 86'400.0);
  ccd_params.masters =
      static_cast<int>(get_int_in(options, "masters", 1, 1 << 12));
  const int masters = ccd_params.masters;
  pace::PaceParams rr_params = ccd_params;
  rr_params.band = 0;
  // RR applies verdicts order-dependently and always runs flat; only the
  // CCD phase hosts the sub-master tier.
  rr_params.masters = 1;

  mpsim::FaultPlan plan = parse_fault_plan(options, masters);
  plan.seed = static_cast<std::uint64_t>(
      get_int_in(options, "fault-seed", 0, std::numeric_limits<int>::max()));
  const mpsim::FaultPlan* plan_arg = plan.empty() ? nullptr : &plan;

  seq::SequenceSet sequences;
  if (!options.positionals().empty()) {
    require_readable(options.positionals()[0]);
    seq::read_fasta_file(options.positionals()[0], sequences);
  } else {
    const auto spec = synth::paper_160k(
        get_double_in(options, "n", 1.0, 10'000'000.0) / 160'000.0,
        static_cast<std::uint64_t>(
            get_int_in(options, "seed", 0, std::numeric_limits<int>::max())));
    sequences = synth::generate(spec).sequences;
  }

  const std::string machine = options.get("machine");
  if (machine != "bluegene" && machine != "xeon") {
    throw UsageError("unknown --machine '" + machine +
                     "' (use bluegene or xeon)");
  }
  const auto model = machine == "xeon" ? mpsim::MachineModel::xeon_cluster()
                                       : mpsim::MachineModel::bluegene_l();

  exec::Pool pool(
      static_cast<unsigned>(get_int_in(options, "threads", 0, 1 << 16)));

  util::telemetry::TelemetryConfig telemetry;
  telemetry.path = options.get("telemetry-out");
  telemetry.command = "simulate";
  telemetry.interval = get_double_in(options, "telemetry-interval", 0.01, 3600.0);
  if (!telemetry.path.empty()) {
    require_writable(telemetry.path);
    util::telemetry::enable(telemetry);
  }

  util::Table table({"p", "RR (s)", "CCD (s)", "total (s)", "RR share",
                     "aligned pairs"});
  table.set_title(util::format("Simulated %s, n = %zu%s", model.name.c_str(),
                               sequences.size(),
                               plan_arg ? " (fault plan active)" : ""));
  for (const std::string& token :
       util::split(options.get("processors"), ',')) {
    int p = 0;
    try {
      p = static_cast<int>(std::stol(std::string(util::trim(token))));
    } catch (const std::exception&) {
      throw UsageError("--processors: expected an integer, got '" +
                       std::string(util::trim(token)) + "'");
    }
    if (p < 2) {
      throw UsageError("--processors: each rank count must be >= 2 (master "
                       "plus at least one worker), got " + std::to_string(p));
    }
    if (masters > 1 && p < masters + 2) {
      throw UsageError("--processors: rank count " + std::to_string(p) +
                       " cannot host --masters " + std::to_string(masters) +
                       " (need >= masters + 2)");
    }
    if (plan_arg) plan.validate_protocol(p, masters);
    // Phase names carry the rank count so one stream covers the sweep.
    const std::string rr_phase = "rr@p=" + std::to_string(p);
    util::telemetry::phase_begin(rr_phase, true, p, 1);
    const auto rr = pace::remove_redundant(sequences, p, model, rr_params,
                                           &pool, plan_arg);
    util::telemetry::phase_end(rr_phase, rr.run.makespan);
    const std::string ccd_phase = "ccd@p=" + std::to_string(p);
    util::telemetry::phase_begin(ccd_phase, true, p, std::max(1, masters));
    const auto ccd = pace::detect_components(sequences, rr.survivors(), p,
                                             model, ccd_params, &pool,
                                             plan_arg);
    util::telemetry::phase_end(ccd_phase, ccd.run.makespan);
    const double total = rr.run.makespan + ccd.run.makespan;
    table.add_row(
        {std::to_string(p), util::format("%.2f", rr.run.makespan),
         util::format("%.2f", ccd.run.makespan), util::format("%.2f", total),
         util::format("%.0f%%", 100.0 * rr.run.makespan / total),
         util::with_commas(static_cast<long long>(
             rr.counters.aligned_pairs + ccd.counters.aligned_pairs))});
    if (plan_arg) {
      const auto report = [](const char* phase, const mpsim::RunResult& run) {
        if (run.crashed_ranks.empty() && run.counter("workers_timed_out") == 0)
          return;
        std::string ranks;
        for (const int r : run.crashed_ranks) {
          ranks += (ranks.empty() ? "" : ",") + std::to_string(r);
        }
        std::fprintf(
            stderr,
            "  [%s: crashed ranks {%s}; %llu pairs requeued, %llu streams "
            "adopted, %llu workers timed out]\n",
            phase, ranks.c_str(),
            static_cast<unsigned long long>(run.counter("pairs_requeued")),
            static_cast<unsigned long long>(run.counter("streams_adopted")),
            static_cast<unsigned long long>(run.counter("workers_timed_out")));
      };
      report("RR", rr.run);
      report("CCD", ccd.run);
    }
    std::fprintf(stderr, "  [p=%d done]\n", p);
  }
  std::fputs(table.to_string().c_str(), stdout);
  if (!telemetry.path.empty()) {
    util::telemetry::disable();
    std::printf("wrote telemetry to %s\n", telemetry.path.c_str());
  }
  return 0;
}

}  // namespace pclust::cli
