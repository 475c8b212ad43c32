// Phase 2: connected-component detection (paper §IV-B, Definition 2 /
// Problem 2) — the PaCE clustering adapted to peptides.
//
// The master holds a union–find over the non-redundant sequences; workers
// stream promising pairs (decreasing maximal-match length) and compute
// overlap alignments on demand. Pairs whose endpoints already share a
// cluster are filtered without alignment — the transitive-closure merging
// that removes the overwhelming majority (> 99.9 % in the paper) of pairs,
// drastically cutting work but starving workers at high processor counts
// (the Table-II scaling loss).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "pclust/mpsim/runtime.hpp"
#include "pclust/pace/engine.hpp"
#include "pclust/pace/params.hpp"
#include "pclust/seq/sequence_set.hpp"

namespace pclust::pace {

/// Position of each id in @p ids: the dense node index by which CCD's
/// union–find and the B_d and B_m graphs number their members.
std::unordered_map<seq::SeqId, std::uint32_t> dense_index(
    const std::vector<seq::SeqId>& ids);

/// The CCD worker: one Definition-2 overlap job per pair, banded on the
/// pair's maximal-match diagonal when params.band > 0. Verdict code 1 =
/// overlap accepted; the verdict carries the alignment evidence. B_d edge
/// construction (bigraph::build_bd) runs it under an always-admit master.
class CcdWorker final : public WorkerPolicy {
 public:
  /// @p set and @p params must outlive the worker.
  CcdWorker(const seq::SequenceSet& set, const PaceParams& params)
      : set_(set), params_(params) {}

  void jobs(const PairTask& task,
            std::vector<align::PairJob>& out) const override;
  Verdict verdict(
      const PairTask& task, std::span<const align::PairJob> jobs,
      std::span<const align::AlignmentResult> results) const override;

 private:
  const seq::SequenceSet& set_;
  const PaceParams& params_;
};

struct ComponentsResult {
  /// Connected components over the input ids, descending size, each sorted
  /// ascending. Singletons included (filter by size at the call site).
  std::vector<std::vector<seq::SeqId>> components;
  EngineCounters counters;
  mpsim::RunResult run;

  [[nodiscard]] std::size_t count_with_min_size(std::size_t min_size) const;
  [[nodiscard]] std::size_t sequences_in_min_size(std::size_t min_size) const;
};

/// Parallel (simulated, p >= 2) component detection over @p ids.
/// @p pool (optional) runs index construction and alignment batches on real
/// threads; the result is identical to pool = nullptr (see engine.hpp).
/// @p plan (optional) injects faults; the engine heals worker crashes and
/// the component partition stays BIT-IDENTICAL to the fault-free run —
/// the partition is the transitive closure of accepted overlaps, which is
/// schedule and fault invariant as long as every pair reaches the master.
ComponentsResult detect_components(const seq::SequenceSet& set,
                                   const std::vector<seq::SeqId>& ids, int p,
                                   const mpsim::MachineModel& model,
                                   const PaceParams& params = {},
                                   exec::Pool* pool = nullptr,
                                   const mpsim::FaultPlan* plan = nullptr);

/// Mid-stream CCD progress: the master's union–find forest plus the pair
/// stream watermark. Pairs [0, next_pair) are folded into @p parents.
struct CcdProgress {
  std::vector<std::uint32_t> parents;
  std::uint64_t next_pair = 0;
};

/// Serial version (run_serial in engine.hpp) with identical semantics.
/// Verdicts are computed in SIMD batches, on @p pool when given; the
/// component partition and the counters are identical at every thread
/// count.
/// @p resume (optional) restores union–find state from a CcdProgress
/// snapshot and skips the already-folded prefix of the pair stream;
/// @p checkpoint_stride > 0 invokes @p on_checkpoint with a fresh snapshot
/// every that many inspected pairs. The resumed partition is bit-identical
/// to an uninterrupted run.
/// @p on_merge (optional) is the merge-provenance recorder: invoked exactly
/// once per SURVIVING union–find merge, with the accepting verdict, in the
/// order the master applied them. Only meaningful on a from-scratch run
/// (resume == nullptr): a resumed run replays a stream suffix, so its
/// recorder would miss merges folded before the checkpoint — callers use
/// the canonical replay (pace/provenance.hpp) there instead.
ComponentsResult detect_components_serial(
    const seq::SequenceSet& set, const std::vector<seq::SeqId>& ids,
    const PaceParams& params = {}, exec::Pool* pool = nullptr,
    const CcdProgress* resume = nullptr, std::uint64_t checkpoint_stride = 0,
    const std::function<void(const CcdProgress&)>& on_checkpoint = nullptr,
    const std::function<void(const Verdict&)>& on_merge = nullptr);

}  // namespace pclust::pace
