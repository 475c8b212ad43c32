#include <cstdio>
#include <string>

#include "cli_common.hpp"
#include "commands.hpp"
#include "pclust/pipeline/perfdiff.hpp"
#include "pclust/util/json.hpp"
#include "pclust/util/options.hpp"

namespace pclust::cli {

/// `pclust perf-diff --baseline a.json --candidate b.json`: the
/// perf-regression gate. Compares phase times, kernel rates, skip ratio,
/// and memory peaks against a relative tolerance; exit 1 on regression so
/// check.sh can gate on the committed BENCH_*.json baselines.
int cmd_perf_diff(int argc, const char* const* argv) {
  util::Options options;
  options.define("baseline", "", "baseline artifact (committed BENCH_*.json)");
  options.define("candidate", "", "candidate artifact (freshly measured)");
  options.define("tolerance", "0.15",
                 "allowed relative slowdown per metric (0.15 = +-15 %)");
  options.define("min-seconds", "0.05",
                 "baseline phases/kernels faster than this are reported but "
                 "never gated (timer noise)");
  options.define_flag("quiet", "print regressions only");
  options.parse(argc, argv);
  if (options.help_requested() || !options.positionals().empty() ||
      options.get("baseline").empty() || options.get("candidate").empty()) {
    std::fputs(options
                   .usage("pclust perf-diff --baseline BENCH_pipeline.json "
                          "--candidate new.json",
                          "Perf-regression gate between two benchmark "
                          "artifacts of the same kind (two run reports or "
                          "two kernel documents). Exits 0 when every gated "
                          "metric is within tolerance, 1 on regression. "
                          "Score-only kernels must additionally show "
                          "speedup_vs_full >= 1.0 in the candidate.")
                   .c_str(),
               stdout);
    return options.help_requested() ? 0 : 2;
  }

  pipeline::PerfDiffOptions opts;
  opts.tolerance = get_double_in(options, "tolerance", 0.0, 100.0);
  opts.min_seconds = get_double_in(options, "min-seconds", 0.0, 1e9);

  const util::JsonValue baseline = load_json(options.get("baseline"));
  const util::JsonValue candidate = load_json(options.get("candidate"));
  const pipeline::PerfDiffResult result =
      pipeline::perf_diff(baseline, candidate, opts);

  if (options.get_flag("quiet")) {
    for (const pipeline::PerfFinding& f : result.findings) {
      if (!f.regression) continue;
      std::printf("REGRESSION %s: %.6g -> %.6g (%.2fx) %s\n",
                  f.metric.c_str(), f.baseline, f.candidate, f.ratio,
                  f.note.c_str());
    }
  } else {
    std::fputs(pipeline::render_perf_diff(result).c_str(), stdout);
  }
  return result.has_regression() ? 1 : 0;
}

}  // namespace pclust::cli
