#include "common.hpp"

#include "pclust/mpsim/machine_model.hpp"
#include "pclust/util/strings.hpp"

namespace pclust::bench {

pace::PaceParams bench_pace_params() {
  pace::PaceParams params;
  params.psi = 10;
  params.band = 32;
  params.batch_size = 256;
  return params;
}

shingle::ShingleParams bench_shingle_params() {
  shingle::ShingleParams params;
  params.s1 = 4;
  params.c1 = 150;
  params.s2 = 2;
  params.c2 = 60;
  params.min_size = 5;
  params.tau = 0.4;
  return params;
}

RrCcdTimes run_rr_ccd(int paper_k, int p, std::uint64_t seed) {
  // paper_k thousand paper sequences, scaled: n = paper_k * 1000 * kScale.
  const auto spec = synth::paper_160k(
      static_cast<double>(paper_k) * 1000.0 * kScale / 160'000.0, seed);
  const synth::Dataset data = synth::generate(spec);
  const auto model = mpsim::MachineModel::bluegene_l();
  const auto params = bench_pace_params();

  RrCcdTimes out;
  out.sequences = data.sequences.size();
  out.processors = p;
  // RR verifies containment with full DP (95 % cutoff) on every candidate
  // direction, as the paper's worker does; CCD's 30 % overlap test
  // tolerates the banded accelerator.
  pace::PaceParams rr_params = params;
  rr_params.band = 0;
  rr_params.qgram_gate = false;
  const auto rr =
      pace::remove_redundant(data.sequences, p, model, rr_params);
  out.rr_seconds = rr.run.makespan;
  const auto survivors = rr.survivors();
  const auto ccd =
      pace::detect_components(data.sequences, survivors, p, model, params);
  out.ccd_seconds = ccd.run.makespan;
  out.promising =
      rr.counters.promising_pairs + ccd.counters.promising_pairs;
  out.aligned = rr.counters.aligned_pairs + ccd.counters.aligned_pairs;
  return out;
}

std::string paper_n_label(int paper_k) {
  return util::format("n=%dk", paper_k);
}

}  // namespace pclust::bench
