// The pclust benchmark: named workloads, their pipeline configuration, and
// the span/counter recorder behind the traced per-layer breakdown.
//
// The benchmark owns its parameters (they mirror bench/common.cpp at the
// time the benchmark was defined) so that a later change to the bench
// harness cannot silently change what these workloads measure.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pclust/pipeline/pipeline.hpp"
#include "pclust/seq/sequence_set.hpp"
#include "pclust/synth/generator.hpp"

namespace perfbench {

namespace pc = pclust;

struct Workload {
  std::string name;
  /// true: synth::paper_22k with the B_m reduction and durable audit
  /// artifacts (provenance ledger, phase checkpoints, run report).
  bool audit = false;
  /// Sequences per input (the preset's scale is n / paper size).
  std::uint32_t n = 0;
  /// Independent inputs per run, generated from sub-seeds of --seed; their
  /// times add up, which averages out how much one seed's family structure
  /// costs.
  int inputs = 1;
  /// 0 = hardware_concurrency, as `pclust families --threads 0`.
  unsigned threads = 0;
};

[[nodiscard]] const std::vector<Workload>& workloads();

/// The generated inputs of one run, with their ground truth.
[[nodiscard]] std::vector<pc::synth::Dataset> make_inputs(const Workload& w,
                                                          std::uint64_t seed);

/// Pipeline configuration of a workload. @p artifact_dir is where audit
/// workloads commit checkpoints (ignored otherwise).
[[nodiscard]] pc::pipeline::PipelineConfig make_config(
    const Workload& w, const std::string& artifact_dir);

/// Ledger and report paths inside an audit artifact directory.
[[nodiscard]] std::string ledger_path(const std::string& dir);
[[nodiscard]] std::string report_path(const std::string& dir);

/// FNV-1a over the family member lists, in the pipeline's family order.
[[nodiscard]] std::uint64_t family_digest(
    const std::vector<pc::pipeline::Family>& families);

/// Process user + system CPU seconds so far (all threads).
[[nodiscard]] double cpu_seconds();
/// Monotonic wall clock, seconds.
[[nodiscard]] double now_seconds();
/// Seconds one pass of a fixed reference computation takes right now.
[[nodiscard]] double reference_seconds();

/// Correctness checks shared by the untraced and the traced run. Returns
/// an empty string when every check holds, else the first violation.
[[nodiscard]] std::string check_result(const Workload& w,
                                       const pc::pipeline::PipelineResult& r,
                                       const pc::pipeline::PipelineConfig& c,
                                       const std::string& artifact_dir);

// ---- Tracing ---------------------------------------------------------------

/// In-memory spans recorded around calls into the library. A span's self
/// time is its duration minus the time its direct children cover.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
    double cpu = 0.0;  // process CPU seconds spent inside the span
  };

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();
    [[nodiscard]] double elapsed() const;

   private:
    Tracer& tracer_;
    int id_;
    double cpu_start_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Sum of self seconds per span name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Sum of durations / CPU seconds of every span named @p name.
  [[nodiscard]] double total(const std::string& name) const;
  [[nodiscard]] double total_cpu(const std::string& name) const;
  /// Sum of the durations of the direct children of every span named
  /// @p parent.
  [[nodiscard]] double children_total(const std::string& parent) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

// ---- The traced decomposition ----------------------------------------------

/// Per-layer quantities of one traced run, summed over its inputs.
struct LayerCounts {
  std::map<std::string, double> sum;  // metric name -> accumulated value
  void add(const std::string& name, double v) { sum[name] += v; }
  void max(const std::string& name, double v) {
    if (v > sum[name]) sum[name] = v;
  }
  [[nodiscard]] double get(const std::string& name) const {
    const auto it = sum.find(name);
    return it == sum.end() ? 0.0 : it->second;
  }
};

/// Run the pipeline's phases for @p set through their public functions, in
/// the order pipeline::run calls them, recording one span per call and the
/// registry deltas around it into @p counts. Returns the result pipeline::run
/// would have returned.
[[nodiscard]] pc::pipeline::PipelineResult decompose(
    const pc::seq::SequenceSet& set, const pc::pipeline::PipelineConfig& cfg,
    Tracer& tracer, LayerCounts& counts);

// ---- Replays ---------------------------------------------------------------

/// Kernel replay: score pairs drawn from the workload's own CCD components,
/// unbanded (as RR aligns) and band-32 (as BGG aligns), through the batch
/// engine and through the single-pair scalar scorers. Adds
/// align.{batch,scalar,banded_batch,banded_scalar}_ns_per_cell.
void replay_kernels(const pc::seq::SequenceSet& set,
                    const std::vector<std::vector<pc::seq::SeqId>>& components,
                    LayerCounts& counts);

/// Suffix replay: build the RR index (all sequences) and the CCD index (the
/// survivors) the way the engine does, then enumerate every bucket. Adds
/// suffix.index_s, suffix.enum_s and replay.suffix_pairs.
void replay_suffix(const pc::seq::SequenceSet& set,
                   const std::vector<pc::seq::SeqId>& survivors,
                   const pc::pipeline::PipelineConfig& cfg,
                   LayerCounts& counts);

}  // namespace perfbench
