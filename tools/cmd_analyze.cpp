#include <cstdio>
#include <string>

#include "cli_common.hpp"
#include "commands.hpp"
#include "pclust/pipeline/analysis.hpp"
#include "pclust/util/json.hpp"
#include "pclust/util/options.hpp"

namespace pclust::cli {

/// `pclust analyze report.json`: per-phase imbalance factor, critical
/// path, straggler ranks, and the CCD master-saturation verdict, computed
/// from the report's rank_times section. Exit 1 when --max-imbalance or
/// --fail-on-saturation trips, so scripts can gate on scaling health.
int cmd_analyze(int argc, const char* const* argv) {
  util::Options options;
  options.define("top", "3", "straggler ranks listed per phase");
  options.define("saturation-busy", "0.6",
                 "master busy fraction at/above which the master counts as "
                 "saturated");
  options.define("saturation-idle", "0.3",
                 "mean worker idle fraction at/above which workers count as "
                 "starved");
  options.define("max-imbalance", "-1",
                 "exit non-zero if any phase's imbalance factor exceeds "
                 "this (-1 = report only)");
  options.define_flag("fail-on-saturation",
                      "exit non-zero when a phase's master is saturated");
  options.define_flag("json", "emit the analysis as JSON instead of text");
  options.parse(argc, argv);
  if (options.help_requested() || options.positionals().size() != 1) {
    std::fputs(options
                   .usage("pclust analyze <report.json>",
                          "Load-imbalance and critical-path analysis of a "
                          "run report's rank_times section: imbalance "
                          "factor (max/mean worker busy time), critical "
                          "path (max busy+comm over ranks), top-k "
                          "stragglers, and a master-saturation diagnosis "
                          "(the paper's CCD scaling bottleneck).")
                   .c_str(),
               stdout);
    return options.help_requested() ? 0 : 2;
  }

  pipeline::AnalysisOptions opts;
  opts.top_k = static_cast<std::size_t>(get_int_in(options, "top", 1, 1024));
  opts.saturation_busy =
      get_double_in(options, "saturation-busy", 0.0, 1.0);
  opts.saturation_idle =
      get_double_in(options, "saturation-idle", 0.0, 1.0);
  const double max_imbalance =
      get_double_in(options, "max-imbalance", -1.0, 1e9);

  const std::string& path = options.positionals()[0];
  const util::JsonValue report = load_json(path);
  pipeline::ReportAnalysis analysis;
  try {
    analysis = pipeline::analyze_report(report, opts);
  } catch (const util::JsonError& e) {
    throw IoError(path + ": " + e.what());
  }

  if (options.get_flag("json")) {
    std::printf("%s\n", pipeline::render_analysis_json(analysis).c_str());
  } else {
    std::fputs(pipeline::render_analysis(analysis).c_str(), stdout);
  }

  if (max_imbalance >= 0.0 && analysis.max_imbalance() > max_imbalance) {
    std::fprintf(stderr,
                 "analyze: imbalance factor %.3f exceeds --max-imbalance "
                 "%.3f\n",
                 analysis.max_imbalance(), max_imbalance);
    return 1;
  }
  if (options.get_flag("fail-on-saturation") && analysis.any_master_saturated()) {
    std::fprintf(stderr, "analyze: a phase's master rank is saturated\n");
    return 1;
  }
  return 0;
}

}  // namespace pclust::cli
