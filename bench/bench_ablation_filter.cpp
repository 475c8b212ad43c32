// Ablation: maximal-match filter vs all-versus-all, and RR's q-gram gate.
//
// The paper reports that on the 40K input, 168M promising pairs were
// generated and only 7M aligned, vs C(40K,2) ≈ 800M all-vs-all alignments —
// a 99% work reduction. This bench reproduces the comparison on the scaled
// 40K analog: the pipeline's aligned-pair count and DP cells vs the
// brute-force baseline's. A second table runs RR with the q-gram gate on
// and off: the containment directions it aligns and their DP cells, and
// the removals, which must be equal.
#include <cstdio>

#include "common.hpp"
#include "pclust/pace/reference.hpp"
#include "pclust/util/strings.hpp"
#include "pclust/util/table.hpp"

int main() {
  using namespace pclust;
  using namespace pclust::bench;

  const synth::Dataset data = synth::generate(
      synth::paper_160k(40'000.0 * kScale / 160'000.0));
  const auto params = bench_pace_params();
  const std::uint64_t n = data.sequences.size();

  // Heuristic pipeline (RR + CCD, serial drivers).
  const auto rr = pace::remove_redundant_serial(data.sequences, params);
  const auto ccd = pace::detect_components_serial(data.sequences,
                                                  rr.survivors(), params);
  const std::uint64_t promising =
      rr.counters.promising_pairs + ccd.counters.promising_pairs;
  const std::uint64_t aligned =
      rr.counters.aligned_pairs + ccd.counters.aligned_pairs;

  // All-versus-all baseline (Definition-2 sweep over the same input).
  std::vector<seq::SeqId> all_ids(data.sequences.size());
  for (seq::SeqId i = 0; i < data.sequences.size(); ++i) all_ids[i] = i;
  pace::BruteForceStats brute;
  const auto brute_components =
      pace::detect_components_bruteforce(data.sequences, all_ids, params,
                                         &brute);

  util::Table table({"approach", "pair visits", "alignments computed",
                     "reduction vs all-pairs"});
  table.set_title(util::format(
      "Ablation: exact-match filtering, 40K-analog input (n = %llu)",
      static_cast<unsigned long long>(n)));
  const std::uint64_t all_pairs = n * (n - 1) / 2;
  table.add_row({"all-versus-all",
                 util::with_commas(static_cast<long long>(brute.alignments)),
                 util::with_commas(static_cast<long long>(brute.alignments)),
                 "0%"});
  table.add_row(
      {"pclust (filter + transitive closure)",
       util::with_commas(static_cast<long long>(promising)),
       util::with_commas(static_cast<long long>(aligned)),
       util::format("%.1f%%", 100.0 * (1.0 - static_cast<double>(aligned) /
                                                 static_cast<double>(
                                                     all_pairs)))});
  table.add_footnote(util::format(
      "components found: brute-force %zu vs heuristic %zu (size >= 5)",
      brute_components.size(), ccd.components.size()));
  table.add_footnote("paper (40K): 168M promising pairs, 7M aligned, ~800M "
                     "all-vs-all => 99% reduction");
  std::fputs(table.to_string().c_str(), stdout);

  // RR with the q-gram gate off: the paper's align-every-candidate worker.
  pace::PaceParams ungated_params = params;
  ungated_params.qgram_gate = false;
  const auto ungated =
      pace::remove_redundant_serial(data.sequences, ungated_params);
  if (ungated.removed != rr.removed) {
    std::fprintf(stderr, "FATAL: the q-gram gate changed RR's removals\n");
    return 1;
  }
  util::Table gate({"RR worker", "directions aligned", "DP cells",
                    "gated directions", "removed"});
  gate.set_title("\nAblation: RR q-gram gate (Definition 1 lower bound on "
                 "shared 3-grams), same input");
  const auto gate_row = [&](const char* name,
                            const pace::RedundancyResult& r) {
    gate.add_row({name,
                  util::with_commas(
                      static_cast<long long>(r.aligned_directions)),
                  util::with_commas(static_cast<long long>(r.cells)),
                  util::with_commas(static_cast<long long>(r.gated_directions)),
                  util::with_commas(
                      static_cast<long long>(r.removed_count()))});
  };
  gate_row("gate off (align every direction)", ungated);
  gate_row("gate on", rr);
  gate.add_footnote(util::format(
      "gate skips %.1f%% of directions and %.1f%% of DP cells",
      100.0 * (1.0 - static_cast<double>(rr.aligned_directions) /
                         static_cast<double>(ungated.aligned_directions)),
      100.0 * (1.0 - static_cast<double>(rr.cells) /
                         static_cast<double>(ungated.cells))));
  std::fputs(gate.to_string().c_str(), stdout);
  return 0;
}
