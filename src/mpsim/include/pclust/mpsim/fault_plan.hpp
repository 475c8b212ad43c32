// Deterministic fault injection for the message-passing simulator.
//
// A FaultPlan describes, ahead of a run, every fault the simulated machine
// will experience. All injection is a pure function of (plan, virtual time,
// per-link message ordinal), never of wall-clock thread interleaving, so a
// given (plan, workload) pair reproduces the same faulted execution — and
// the same RunResult — on every replay.
//
// Fault model (documented in DESIGN.md "Fault model & checkpoint format"):
//   - Rank crash: the rank's thread dies (throws RankCrashed, recorded in
//     RunResult::crashed_ranks) the first time its VIRTUAL clock reaches
//     `at_virtual_time`. Messages it sent before dying stay deliverable;
//     peers blocked on it observe RecvStatus::kRankFailed instead of
//     deadlocking.
//   - Message drop: the link layer is modelled as reliable-with-retransmit
//     (the paper's MPI runs on a reliable torus): a "dropped" copy costs a
//     retransmission delay added to the arrival stamp rather than silent
//     loss, so timing degrades but payloads are never destroyed.
//   - Message duplication: the message is delivered twice (the classic
//     at-least-once failure); protocols on top must deduplicate (the PaCE
//     engine carries sequence numbers and applies verdicts idempotently).
//   - Straggler: a per-rank multiplier on every compute charge — the rank
//     is slow, not dead.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace pclust::mpsim {

struct FaultPlan {
  /// Seeds the per-message drop/duplication decisions.
  std::uint64_t seed = 0;

  struct Crash {
    int rank = -1;
    /// The rank dies the first time its virtual clock is >= this.
    double at_virtual_time = 0.0;
  };
  std::vector<Crash> crashes;

  /// Per-message probability that a copy is dropped in flight; each dropped
  /// copy adds `retransmit_delay` to the arrival stamp (reliable link with
  /// retransmission, see header comment). In [0, 1).
  double drop_probability = 0.0;
  /// Virtual seconds added per dropped copy.
  double retransmit_delay = 1e-3;

  /// Per-message probability of a duplicate delivery. In [0, 1).
  double duplicate_probability = 0.0;

  /// Per-rank compute slowdown multipliers; ranks beyond the vector (or
  /// with values <= 0) run at factor 1.
  std::vector<double> straggler_factor;

  [[nodiscard]] bool empty() const {
    return crashes.empty() && drop_probability <= 0.0 &&
           duplicate_probability <= 0.0 && straggler_factor.empty();
  }

  /// Earliest planned crash time for @p rank; +inf when it never crashes.
  [[nodiscard]] double crash_time(int rank) const {
    double at = std::numeric_limits<double>::infinity();
    for (const Crash& c : crashes) {
      if (c.rank == rank && c.at_virtual_time < at) at = c.at_virtual_time;
    }
    return at;
  }

  [[nodiscard]] double slowdown(int rank) const {
    const auto i = static_cast<std::size_t>(rank);
    if (rank < 0 || i >= straggler_factor.size()) return 1.0;
    return straggler_factor[i] > 0.0 ? straggler_factor[i] : 1.0;
  }

  /// Throws std::invalid_argument if the plan is malformed for @p p ranks.
  void validate(int p) const {
    for (const Crash& c : crashes) {
      if (c.rank < 0 || c.rank >= p) {
        throw std::invalid_argument(
            "FaultPlan: crash rank " + std::to_string(c.rank) +
            " out of range for p=" + std::to_string(p));
      }
      if (c.at_virtual_time < 0.0) {
        throw std::invalid_argument(
            "FaultPlan: crash time for rank " + std::to_string(c.rank) +
            " must be >= 0 virtual seconds (got " +
            std::to_string(c.at_virtual_time) + ")");
      }
    }
    if (drop_probability < 0.0 || drop_probability >= 1.0 ||
        duplicate_probability < 0.0 || duplicate_probability >= 1.0) {
      throw std::invalid_argument(
          "FaultPlan: probabilities must lie in [0, 1)");
    }
    if (retransmit_delay < 0.0) {
      throw std::invalid_argument("FaultPlan: retransmit_delay must be >= 0");
    }
    for (std::size_t r = 0; r < straggler_factor.size(); ++r) {
      if (straggler_factor[r] < 0.0) {
        throw std::invalid_argument(
            "FaultPlan: straggler factor for rank " + std::to_string(r) +
            " must be >= 0 (got " + std::to_string(straggler_factor[r]) +
            ")");
      }
    }
  }

  /// Validate the plan against the master–worker protocol's survivability
  /// envelope for @p p ranks and @p masters master ranks (1 = flat):
  /// rejects plans no protocol run can heal — crashing the root/master
  /// (rank 0), crashing every sub-master, or crashing every worker — up
  /// front with std::invalid_argument (the CLI's exit-code-2 class)
  /// instead of letting the simulation die with an unattributable error.
  void validate_protocol(int p, int masters = 1) const {
    validate(p);
    if (masters < 1) {
      throw std::invalid_argument("FaultPlan: masters must be >= 1");
    }
    if (masters > 1 && p < masters + 2) {
      throw std::invalid_argument(
          "FaultPlan: p=" + std::to_string(p) + " is too small for " +
          std::to_string(masters) +
          " sub-masters; need p >= masters + 2 so at least one worker "
          "exists");
    }
    const int first_worker = masters > 1 ? masters + 1 : 1;
    std::vector<bool> crashed(static_cast<std::size_t>(p), false);
    for (const Crash& c : crashes) {
      if (c.rank == 0) {
        throw std::invalid_argument(
            masters > 1
                ? "FaultPlan: the root (rank 0) must not crash — only "
                  "sub-master ranks 1.." +
                      std::to_string(masters) + " and worker ranks " +
                      std::to_string(first_worker) + ".." +
                      std::to_string(p - 1) + " can appear in crashes"
                : "FaultPlan: the master (rank 0) must not crash — only "
                  "worker ranks 1.." +
                      std::to_string(p - 1) + " can appear in crashes");
      }
      crashed[static_cast<std::size_t>(c.rank)] = true;
    }
    if (masters > 1) {
      bool all_submasters = true;
      for (int m = 1; m <= masters && all_submasters; ++m) {
        all_submasters = crashed[static_cast<std::size_t>(m)];
      }
      if (all_submasters) {
        throw std::invalid_argument(
            "FaultPlan: crashing all " + std::to_string(masters) +
            " sub-masters is unsurvivable — at least one sub-master rank "
            "in 1.." +
            std::to_string(masters) + " must stay alive");
      }
    }
    bool all_workers = true;
    for (int w = first_worker; w < p && all_workers; ++w) {
      all_workers = crashed[static_cast<std::size_t>(w)];
    }
    if (all_workers) {
      throw std::invalid_argument(
          "FaultPlan: crashing all worker ranks " +
          std::to_string(first_worker) + ".." + std::to_string(p - 1) +
          " is unsurvivable — at least one worker must stay alive");
    }
  }
};

/// Thrown inside a rank when its planned crash time is reached. Interception
/// is internal: mpsim::run records the rank in RunResult::crashed_ranks and
/// does NOT propagate this to the caller.
class RankCrashed : public std::runtime_error {
 public:
  explicit RankCrashed(int rank)
      : std::runtime_error("mpsim: rank " + std::to_string(rank) +
                           " crashed (fault plan)"),
        rank_(rank) {}
  [[nodiscard]] int rank() const { return rank_; }

 private:
  int rank_;
};

/// Thrown by a protocol rank whose receive from the master it depends on
/// (a flat worker's master, a sub-master's or re-homing worker's root)
/// returned anything but RecvStatus::kOk, instead of waiting on a dead
/// peer forever. Like any rank exception it aborts the run and surfaces
/// as a RankError.
class RankFailedError : public std::runtime_error {
 public:
  explicit RankFailedError(int rank)
      : std::runtime_error("mpsim: peer rank " + std::to_string(rank) +
                           " failed while a message from it was awaited"),
        rank_(rank) {}
  [[nodiscard]] int rank() const { return rank_; }

 private:
  int rank_;
};

}  // namespace pclust::mpsim
