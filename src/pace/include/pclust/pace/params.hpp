// Shared parameters of the PaCE-style phases (redundancy removal and
// connected-component detection).
#pragma once

#include <cstdint>

#include "pclust/align/predicates.hpp"

namespace pclust::pace {

struct PaceParams {
  /// Minimum maximal-match length ψ that makes a sequence pair "promising".
  /// The paper derives ψ from the similarity model (§IV-A) and reports
  /// 10-residue matches for the 40 K experiment.
  std::uint32_t psi = 10;

  /// Suffix prefix length used to partition the (conceptual) GST across
  /// workers; must be <= psi so no qualifying node spans two buckets.
  std::uint32_t bucket_prefix = 3;

  /// Pairs per worker->master submission and per master->worker work chunk.
  std::uint32_t batch_size = 256;

  /// Generation aggressiveness: how many batches a worker submits per
  /// protocol round. 1 reproduces the paper's behaviour; larger values
  /// implement its §V suggestion that "a more aggressive work generation
  /// scheme is required to compensate for work loss" when the master's
  /// filtering starves workers at high processor counts.
  std::uint32_t generation_batches = 1;

  /// Skip suffix-tree nodes with more occurrences than this
  /// (low-complexity guard; 0 = unlimited).
  std::uint32_t max_node_occurrences = 50'000;

  /// Master-side liveness backstop, WALL-clock seconds: a worker that stays
  /// silent this long is declared failed and its work is reassigned exactly
  /// as for a crash (it is also sent a final done message in case it is
  /// merely hung). 0 waits forever — the default, since in the simulator a
  /// slow-but-healthy thread is indistinguishable from a hung one.
  double heartbeat_timeout = 0.0;

  /// Extra timed-out receives — each with the timeout doubled — before a
  /// silent worker is declared dead, so a transient stall does not trigger
  /// a (correct but wasteful) reassignment.
  std::uint32_t heartbeat_retries = 2;
  /// Ceiling on the backed-off per-retry timeout, wall seconds (0 = grow
  /// unbounded). With many retries an uncapped exponential ladder waits far
  /// past any useful point; the ceiling bounds each wait while keeping the
  /// retry count intact.
  double heartbeat_max_timeout = 0.0;

  /// Master ranks for the simulated protocol: 1 (default) is the paper's
  /// flat single master; >= 2 enables the two-level master tree (rank 0 the
  /// root, ranks 1..masters failable sub-masters owning union-find shards)
  /// that removes the single-master admit bottleneck. Requires
  /// p >= masters + 2. Only confluent phases (CCD, DSD) may run
  /// hierarchical; RR is order-dependent and always runs flat.
  int masters = 1;

  /// Whole-phase WALL-clock watchdog, seconds (0 = off): if the master loop
  /// runs longer than this, the phase aborts with an attributed RankError
  /// instead of hanging forever.
  double phase_deadline = 0.0;

  /// Phase label attached to fault events and RankError diagnostics
  /// (e.g. "rr", "ccd"); purely observational.
  const char* phase_label = "pace";

  /// Banded-alignment half width seeded on the maximal-match diagonal;
  /// 0 = full (exact) dynamic programming.
  std::uint32_t band = 0;

  /// RR decides the containment directions the q-gram bound rules out
  /// (align::containment_possible) without aligning them. The bound only
  /// rules out directions Definition 1 rejects, so the removal result is
  /// the same either way. Only the paper-figure benches clear it, to keep
  /// the paper's align-every-candidate RR worker.
  bool qgram_gate = true;

  /// Definition 1 cutoffs (similarity and contained-sequence coverage).
  align::ContainmentParams containment{};
  /// Definition 2 cutoffs (similarity and longer-sequence coverage).
  align::OverlapParams overlap{};
};

/// The paper's ψ derivation (§IV-A): if two sequences must align over
/// @p align_length residues at @p min_similarity, they can differ in at
/// most k = floor((1 - min_similarity) * align_length) positions, so by
/// pigeonhole at least one exact segment of length
/// floor(align_length / (k + 1)) exists. E.g. derive_psi(0.98, 100) == 33.
/// A necessary-but-not-sufficient filter length.
[[nodiscard]] constexpr std::uint32_t derive_psi(double min_similarity,
                                                 std::uint32_t align_length) {
  const auto errors = static_cast<std::uint32_t>(
      (1.0 - min_similarity) * align_length);
  return align_length / (errors + 1);
}

}  // namespace pclust::pace
