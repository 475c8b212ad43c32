// Shared helpers for the bench harness.
//
// Every bench is a scaled analog of a paper experiment: the workload is the
// synthetic CAMERA substitute (synth presets), RR/CCD run on the mpsim
// BlueGene/L model, and DSD runs (really) on the host like the paper's
// serial Shingle code ran on one Xeon. kScale maps the paper's sequence
// counts onto sizes this harness can sweep in minutes:
// paper n (10K..160K) * kScale -> bench n.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pclust/pace/components.hpp"
#include "pclust/pace/params.hpp"
#include "pclust/pace/redundancy.hpp"
#include "pclust/pipeline/pipeline.hpp"
#include "pclust/synth/presets.hpp"

namespace pclust::bench {

/// Paper-size -> bench-size factor (1/40: the paper's 80 K input becomes
/// 2,000 sequences).
inline constexpr double kScale = 1.0 / 40.0;

/// The processor counts of the paper's BlueGene/L runs.
inline const std::vector<int> kProcessorCounts = {32, 64, 128, 512};

/// Paper input sizes (in thousands) used by Figs. 6-7.
inline const std::vector<int> kInputSizesK = {10, 20, 40, 80, 160};

/// PaceParams used by all performance benches: ψ = 10 as in the paper's
/// 40 K experiment, banded verification alignments (band 32) — the
/// production configuration.
[[nodiscard]] pace::PaceParams bench_pace_params();

/// Shingle parameters scaled to bench-size components (the paper's (5,300)
/// targets 20 K-sequence components).
[[nodiscard]] shingle::ShingleParams bench_shingle_params();

struct RrCcdTimes {
  std::size_t sequences = 0;
  int processors = 0;
  double rr_seconds = 0.0;        // simulated
  double ccd_seconds = 0.0;       // simulated
  std::uint64_t promising = 0;    // RR + CCD promising pairs
  std::uint64_t aligned = 0;      // RR + CCD aligned pairs
  [[nodiscard]] double total() const { return rr_seconds + ccd_seconds; }
};

/// Run RR then CCD for the paper_160k analog at `paper_k` thousand paper
/// sequences (scaled by kScale) on p simulated BlueGene/L ranks. RR aligns
/// every candidate direction with full DP, as the paper's worker does
/// (PaceParams::qgram_gate cleared).
[[nodiscard]] RrCcdTimes run_rr_ccd(int paper_k, int p,
                                    std::uint64_t seed = 42);

/// Label like "n=10k" using PAPER units for axis compatibility.
[[nodiscard]] std::string paper_n_label(int paper_k);

}  // namespace pclust::bench
