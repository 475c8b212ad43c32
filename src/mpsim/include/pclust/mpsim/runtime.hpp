// Runtime entry point: run a rank function on p simulated processors.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "pclust/mpsim/communicator.hpp"
#include "pclust/mpsim/fault_plan.hpp"

namespace pclust::mpsim {

/// A rank function terminated with an exception. Carries the failing rank's
/// id, the phase label of the run (when one was given), and the rank's
/// virtual time at death; the original exception is nested
/// (std::rethrow_if_nested recovers it). When several ranks throw
/// concurrently, the lowest-numbered non-secondary failure wins — all
/// threads are joined either way.
class RankError : public std::runtime_error {
 public:
  RankError(int rank, const std::string& what, const std::string& phase = "",
            double virtual_time = -1.0, const std::string& level = "")
      : std::runtime_error(
            "mpsim" + (phase.empty() ? std::string() : "[" + phase + "]") +
            ": " + (level.empty() ? std::string() : level + " ") + "rank " +
            std::to_string(rank) +
            (virtual_time >= 0.0
                 ? " failed at vt=" + std::to_string(virtual_time) + "s: "
                 : " failed: ") +
            what),
        rank_(rank),
        phase_(phase),
        level_(level),
        virtual_time_(virtual_time) {}
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] const std::string& phase() const { return phase_; }
  /// Topology level of the failing rank ("root", "sub-master", "worker",
  /// "master"); "" when the run had no level attribution.
  [[nodiscard]] const std::string& level() const { return level_; }
  /// Virtual seconds since phase start, or -1 when unknown.
  [[nodiscard]] double virtual_time() const { return virtual_time_; }

 private:
  int rank_;
  std::string phase_;
  std::string level_;
  double virtual_time_;
};

/// Where one rank's virtual time went: busy (compute charges), comm (wire
/// time), idle (blocked on peers). busy + comm + idle equals the
/// rank's entry in RunResult::rank_times up to fp rounding — the analyzer
/// and report-check rely on that identity.
struct RankBreakdown {
  double busy = 0.0;
  double comm = 0.0;
  double idle = 0.0;
};

struct RunResult {
  /// Final virtual clock of each rank, seconds (crashed ranks report the
  /// clock at their death).
  std::vector<double> rank_times;
  /// Busy/comm/idle decomposition of rank_times, same indexing.
  std::vector<RankBreakdown> rank_breakdown;
  /// Topology level of each rank, same indexing ("" for every rank of a
  /// run without level attribution): reports label ranks from here.
  std::vector<std::string> rank_levels;
  /// max(rank_times): the simulated parallel run-time of the phase.
  double makespan = 0.0;
  /// Per-rank counters summed over all ranks.
  std::map<std::string, std::uint64_t> counters;
  /// Ranks that died to a planned FaultPlan crash (ascending). Always empty
  /// for fault-free runs.
  std::vector<int> crashed_ranks;
  /// Human-readable fault/healing events (planned crashes plus every
  /// Communicator::note), ordered rank-ascending. Empty for clean runs.
  std::vector<std::string> fault_events;
  /// The phase label this result was produced under ("" when unnamed).
  std::string phase;

  [[nodiscard]] std::uint64_t counter(const std::string& key) const {
    const auto it = counters.find(key);
    return it == counters.end() ? 0 : it->second;
  }
};

/// Execute @p fn on @p p ranks (each a real thread) against @p model.
/// Returns once every rank function has returned. An exception thrown by a
/// rank is rethrown here wrapped in RankError{rank, what} (the original
/// nested inside) after ALL threads have been joined; with several
/// concurrent failures the lowest-ranked original error wins over
/// secondary Aborted unwinds.
RunResult run(int p, const MachineModel& model,
              const std::function<void(Communicator&)>& fn);

/// Fault-injected variant: runs @p fn under @p plan (seeded crashes,
/// message drop/duplication, stragglers — see fault_plan.hpp). Planned
/// crashes are recorded in RunResult::crashed_ranks, NOT rethrown; real
/// errors still surface as RankError. Throws std::invalid_argument on a
/// malformed plan.
RunResult run(int p, const MachineModel& model, const FaultPlan& plan,
              const std::function<void(Communicator&)>& fn);

/// Labelled variant: like run() but tags the result (and any RankError)
/// with @p phase so failures in multi-phase pipelines stay attributable.
/// @p plan may be null for a fault-free run.
RunResult run_phase(const std::string& phase, int p,
                    const MachineModel& model, const FaultPlan* plan,
                    const std::function<void(Communicator&)>& fn);

/// Level-attributed variant: @p level_of maps a rank to its topology level
/// ("root"/"sub-master"/"worker", or "master"/"worker" flat). The result
/// records the levels (RunResult::rank_levels); any RankError and every
/// planned-crash fault event name the level alongside the rank. With
/// tracing on the run draws its timeline: it opens process "sim:<phase>"
/// (protocol code emits onto trace::current_pid()), names lane r
/// "<level>" for rank 0 and "<level>-<r>" otherwise, adds one "rank" (or
/// "rank(crashed)") lifetime span per rank after the run, and sets the
/// current pid back to 0. A run that throws draws nothing after the run.
RunResult run_phase(const std::string& phase, int p,
                    const MachineModel& model, const FaultPlan* plan,
                    const std::function<void(Communicator&)>& fn,
                    const std::function<std::string(int)>& level_of);

}  // namespace pclust::mpsim
