// Phase 1: redundancy removal (paper §IV-A, Definition 1 / Problem 1).
//
// Sequences that are >= 95 % contained in another sequence are removed.
// Candidate pairs come from the ψ-length maximal-match filter; candidates
// are verified by optimal local alignment, except the containment
// directions a q-gram count proves Definition 1 rejects
// (align::containment_possible), which are decided without one. A
// sequence is removed only if its container is itself still present at
// verdict-application time, so no information is lost through removal
// chains.
#pragma once

#include <cstdint>
#include <vector>

#include "pclust/mpsim/runtime.hpp"
#include "pclust/pace/engine.hpp"
#include "pclust/pace/params.hpp"
#include "pclust/seq/sequence_set.hpp"

namespace pclust::pace {

struct RedundancyResult {
  /// removed[id] == 1 iff sequence id was eliminated as redundant.
  std::vector<std::uint8_t> removed;
  /// For removed sequences: the id of the sequence that contains them.
  std::vector<seq::SeqId> container;
  /// Engine statistics (pair generation / filtering / alignment counts).
  EngineCounters counters;
  /// Containment work behind the applied verdicts: directions the q-gram
  /// gate (PaceParams::qgram_gate) decided without an alignment,
  /// directions aligned, and their DP cells.
  std::uint64_t gated_directions = 0;
  std::uint64_t aligned_directions = 0;
  std::uint64_t cells = 0;
  /// Simulated timing; rank_times empty for the serial driver.
  mpsim::RunResult run;

  [[nodiscard]] std::vector<seq::SeqId> survivors() const;
  [[nodiscard]] std::size_t removed_count() const;
};

/// Parallel (simulated, p >= 2) redundancy removal over all of @p set.
/// @p pool (optional) runs index construction and alignment batches on real
/// threads; the result is identical to pool = nullptr (see engine.hpp).
/// @p plan (optional) injects faults; worker crashes are healed by the
/// engine. NOTE: unlike CCD, the RR verdict application is order
/// dependent (removal chains), so the healed result is a VALID redundancy
/// removal but not necessarily bit-identical to the fault-free one.
RedundancyResult remove_redundant(const seq::SequenceSet& set, int p,
                                  const mpsim::MachineModel& model,
                                  const PaceParams& params = {},
                                  exec::Pool* pool = nullptr,
                                  const mpsim::FaultPlan* plan = nullptr);

/// Serial version (run_serial in engine.hpp): same filter and verdict
/// semantics, no simulation. Verdicts are computed in SIMD batches, on
/// @p pool when given; the removed/container state and the counters are
/// identical at every thread count. @p hooks (optional) go to run_serial;
/// a run that starts mid-stream starts from an empty removal state.
RedundancyResult remove_redundant_serial(const seq::SequenceSet& set,
                                         const PaceParams& params = {},
                                         exec::Pool* pool = nullptr,
                                         const SerialHooks* hooks = nullptr);

}  // namespace pclust::pace
