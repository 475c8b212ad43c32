// MemoryGovernor — the --mem-budget enforcement layer, and the one memory
// ledger of a run.
//
// A footprint is accounted one way: a MemoryCharge (below) names a
// structure and holds its live parts, sized by util/memsize capacity
// accounting. Setting a part moves the process-wide ledger by the
// difference and republishes the `mem.[<phase>.]<structure>.<part>` and
// `.total` gauges, so a gauge's high-water mark is a footprint the ledger
// held; the run report's `memory` section lists exactly what was charged.
// The ledger is a pure function of the input and configuration
// (capacities, not RSS), so every decision the governor makes is
// host-independent and reproducible.
//
// The governor has one lever, and it keeps the output invariant — the
// bit-identity contract (chaos class 8: a budgeted run's families,
// provenance ledger and work counters equal the unconstrained run's):
//
//   peak >= 0.70      the pooled BGG+DSD drain starts a component graph
//                     only while no other graph is in flight (the fold is
//                     in component order whoever built which graph). It
//                     reads the ledger's high-water, not its level: a graph
//                     charges its Shingle tables late, after the next graph
//                     has started
//
// Serial structures keep their footprint down by construction (no
// quadratic tables; Shingle frees its tuples before it builds the element
// table), so one lane has nothing to degrade.
//
// The lever taken is recorded as a DegradationEvent; the run report's
// `degradation` section is assembled from this log. When the ledger
// exceeds TWICE the budget despite degradation, the situation is
// hopeless: the pipeline throws MemoryBudgetExceeded at the next phase
// boundary — after that phase's checkpoint is flushed — so the run exits
// structured and `--resume` can pick up where it stopped.
#pragma once

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pclust/util/memsize.hpp"

namespace pclust::util {

class Gauge;

/// The ledger stayed above twice the budget through every degradation
/// lever. Thrown at a phase boundary (checkpoints already flushed), so a
/// checkpointed run is resumable. The CLI maps this to exit code 5.
class MemoryBudgetExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One degradation action taken under memory pressure.
struct DegradationEvent {
  std::string phase;
  std::string action;
  std::string detail;
};

class MemoryGovernor {
 public:
  static MemoryGovernor& instance();

  /// Install a budget (0 = unlimited) and reset the ledger, high-water,
  /// degradation log, and hard-exceeded flag. Accounting always runs —
  /// even unbudgeted, so a golden run's high_water() can calibrate a
  /// later budgeted run (chaos class 8 budgets 60 % of it).
  void configure(std::uint64_t budget_bytes);

  [[nodiscard]] std::uint64_t budget() const;
  [[nodiscard]] bool budgeted() const { return budget() > 0; }

  /// The phase label used for degradation events from callees that do not
  /// know which phase they run in (the pooled drain).
  void set_phase(std::string_view phase);

  [[nodiscard]] std::uint64_t ledger() const;
  [[nodiscard]] std::uint64_t high_water() const;

  /// True when the pooled BGG+DSD drain should start a graph only while no
  /// other is in flight: the ledger's high-water has reached 0.70 of the
  /// budget. Records a `shrink-drain` DegradationEvent the first time it
  /// narrows in a phase.
  [[nodiscard]] bool narrow_drain();

  void note_degradation(std::string_view phase, std::string_view action,
                        std::string_view detail);
  [[nodiscard]] std::vector<DegradationEvent> degradation_log() const;

  /// Set once a charge pushes the ledger above 2x the budget — past the
  /// point degradation can save the run.
  [[nodiscard]] bool hard_exceeded() const;

  /// Phase-boundary check: throws MemoryBudgetExceeded when
  /// hard_exceeded(), quoting the ledger level and the charge that tripped
  /// it. @p resumable selects the operator guidance in the message (resume
  /// vs. re-run with a larger budget).
  void check_phase_boundary(std::string_view phase, bool resumable) const;

 private:
  friend class MemoryCharge;

  MemoryGovernor() = default;

  /// The ledger primitives; only MemoryCharge moves the ledger.
  void charge(std::string_view what, std::uint64_t bytes);
  void release(std::uint64_t bytes);

  mutable std::mutex mu_;
  std::uint64_t budget_ = 0;
  std::uint64_t ledger_ = 0;
  std::uint64_t high_water_ = 0;
  bool hard_exceeded_ = false;
  /// The ledger level, and the charge, that tripped hard_exceeded_: by the
  /// phase boundary the phase has usually released its charges.
  std::uint64_t exceeded_ledger_ = 0;
  std::string exceeded_by_;
  std::string phase_ = "run";
  std::vector<DegradationEvent> log_;
};

/// Shorthand for MemoryGovernor::instance().
[[nodiscard]] MemoryGovernor& governor();

/// One structure's live footprint in the governor's ledger. A named charge
/// is the structure `mem.[<phase>.]<name>`: set() moves the ledger by the
/// difference and republishes the part's gauge and the `total` gauge (the
/// live sum of the parts). An unnamed charge moves the ledger only.
/// Destruction releases every part; the gauges keep their marks. Move-only:
/// a moved-from charge holds nothing.
class MemoryCharge {
 public:
  MemoryCharge() = default;
  /// The structure @p footprint names, under @p phase (empty: none),
  /// holding @p footprint's parts.
  MemoryCharge(std::string_view phase, const MemoryBreakdown& footprint);
  MemoryCharge(MemoryCharge&& other) noexcept { *this = std::move(other); }
  MemoryCharge& operator=(MemoryCharge&& other) noexcept;
  MemoryCharge(const MemoryCharge&) = delete;
  MemoryCharge& operator=(const MemoryCharge&) = delete;
  ~MemoryCharge() { reset(); }

  /// Part @p part now holds @p bytes.
  void set(std::string_view part, std::uint64_t bytes);
  /// Every part of @p footprint now holds its bytes.
  void set(const MemoryBreakdown& footprint);
  /// Part @p part grows by @p bytes.
  void add(std::string_view part, std::uint64_t bytes);
  /// Releases every part.
  void reset();
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  struct Part {
    std::string key;  // the gauge key (named), or the bare part name
    std::uint64_t bytes = 0;
    Gauge* gauge = nullptr;  // null when unnamed
  };
  Part& part(std::string_view name);

  std::string base_;  // `mem.[<phase>.]<name>.`; empty when unnamed
  std::vector<Part> parts_;
  std::uint64_t bytes_ = 0;
  Gauge* total_ = nullptr;
};

}  // namespace pclust::util
