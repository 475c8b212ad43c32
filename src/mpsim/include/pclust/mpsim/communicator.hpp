// Communicator: the per-rank handle of the message-passing simulator.
//
// Semantics follow the MPI subset the PaCE protocol needs — tagged
// point-to-point send and a failure-aware receive, FIFO per
// (src, dst, tag) — with a virtual clock per rank:
//   - compute is charged explicitly via charge_*() (analytic op counts);
//   - send() stamps the payload with the sender's current virtual time;
//   - recv_status() advances the receiver to
//     max(own, stamp + latency + bytes/bw).
// Ranks execute on real threads, so the wall-clock interleaving is
// arbitrary, but the VIRTUAL times are a function of the communication
// pattern alone, which is what the scalability benches measure.
//
// Payloads move through std::any in-process; `bytes` is the size the
// payload WOULD have on the wire and only affects the clock.
#pragma once

#include <any>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "pclust/mpsim/machine_model.hpp"

namespace pclust::mpsim {

class Transport;  // internal shared state (runtime.cpp)

/// Outcome of a status-reporting receive (see Communicator::recv_status).
enum class RecvStatus {
  kOk = 0,        ///< a matching message was received
  kRankFailed,    ///< the awaited peer failed and left no matching message
  kTimeout,       ///< the wall-clock timeout expired first
};

struct Message {
  int src = -1;
  int tag = 0;
  std::any payload;
  std::uint64_t bytes = 0;
  double send_time = 0.0;

  template <typename T>
  [[nodiscard]] T take() {
    return std::any_cast<T>(std::move(payload));
  }
};

/// Per-rank virtual clock (seconds since phase start).
class VirtualClock {
 public:
  void advance(double seconds) { now_ += seconds; }
  void advance_to(double t) {
    if (t > now_) now_ = t;
  }
  [[nodiscard]] double now() const { return now_; }

 private:
  double now_ = 0.0;
};

class Communicator {
 public:
  /// @p crash_at / @p compute_factor implement the fault plan: the rank
  /// throws RankCrashed the first time its virtual clock reaches
  /// @p crash_at, and every compute charge is scaled by @p compute_factor
  /// (straggler model). The defaults are fault-free.
  Communicator(Transport& transport, int rank, const MachineModel& model,
               double crash_at = std::numeric_limits<double>::infinity(),
               double compute_factor = 1.0);

  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;
  [[nodiscard]] const MachineModel& model() const { return model_; }
  [[nodiscard]] VirtualClock& clock() { return clock_; }
  [[nodiscard]] const VirtualClock& clock() const { return clock_; }

  // -- compute cost charging ------------------------------------------------
  void charge_cells(std::uint64_t n) {
    advance_busy(static_cast<double>(n) * model_.cell_cost * compute_factor_);
    check_crash();
  }
  void charge_index_chars(std::uint64_t n) {
    advance_busy(static_cast<double>(n) * model_.index_char_cost *
                 compute_factor_);
    check_crash();
  }
  void charge_pairs(std::uint64_t n) {
    advance_busy(static_cast<double>(n) * model_.pair_cost * compute_factor_);
    check_crash();
  }
  void charge_finds(std::uint64_t n) {
    advance_busy(static_cast<double>(n) * model_.find_cost * compute_factor_);
    check_crash();
  }
  void charge_hashes(std::uint64_t n) {
    advance_busy(static_cast<double>(n) * model_.hash_cost * compute_factor_);
    check_crash();
  }

  // -- virtual-time decomposition -------------------------------------------
  // Every clock advance is attributed to exactly one of three accumulators:
  //   busy — compute charged via charge_*() (straggler-scaled);
  //   comm — wire time: explicit latency/transfer advances plus, on a
  //          waiting advance_to(), at most the wire cost of the awaited
  //          message (the rest of the jump is time the peer had not sent
  //          yet, i.e. idle);
  //   idle — everything else (blocked on a peer).
  // Invariant: busy + comm + idle == clock().now() (up to fp rounding);
  // the run report's rank_times section is checked against it.
  [[nodiscard]] double busy_time() const { return busy_; }
  [[nodiscard]] double comm_time() const { return comm_; }
  [[nodiscard]] double idle_time() const {
    const double idle = clock_.now() - busy_ - comm_;
    return idle > 0.0 ? idle : 0.0;
  }

  // -- point-to-point -------------------------------------------------------
  /// Blocking-buffered send (never waits). @p bytes is the wire size used
  /// for the receiver's clock; pass an honest estimate.
  void send(int dst, int tag, std::any payload, std::uint64_t bytes);

  /// Failure-aware receive of the next message from @p src with tag @p tag
  /// (FIFO per src/tag): blocks until one arrives (kOk, message stored in
  /// @p out, clock advanced to its arrival time), the awaited peer is marked
  /// failed with no matching message left (kRankFailed), or
  /// @p timeout_seconds of WALL-clock time pass (kTimeout; < 0 waits
  /// forever). The timeout is a liveness backstop for hung ranks: virtual
  /// time is not advanced on kRankFailed/kTimeout, so timeouts left unused
  /// preserve bit-identical virtual timing.
  RecvStatus recv_status(int src, int tag, Message& out,
                         double timeout_seconds = -1.0);

  // -- counters -------------------------------------------------------------
  /// Free-form per-rank statistics, aggregated into RunResult.
  void count(const std::string& key, std::uint64_t delta = 1);
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }

  /// Per-link traffic recorded by send(): one entry per destination this
  /// rank ever sent to (keys "link.SRC->DST.msgs" / ".bytes" in counters()).
  void record_link_traffic(int dst, std::uint64_t bytes);

  /// Record a human-readable fault/healing event (worker death, timeout,
  /// adoption, ...). Events are merged rank-ascending into
  /// RunResult::fault_events so healed runs stay auditable.
  void note(std::string event) { notes_.push_back(std::move(event)); }
  [[nodiscard]] const std::vector<std::string>& notes() const {
    return notes_;
  }

 private:
  /// Dies (throws RankCrashed, marks the rank failed in the transport) once
  /// the virtual clock has reached the planned crash time. Called on every
  /// charge and at the top of every communication operation.
  void check_crash();

  void advance_busy(double seconds) {
    clock_.advance(seconds);
    busy_ += seconds;
  }
  void advance_comm(double seconds) {
    clock_.advance(seconds);
    comm_ += seconds;
  }
  /// Advance to @p target attributing at most @p wire_seconds of the jump
  /// to comm; any remainder is idle (wait for a peer that was not ready).
  void advance_to_comm(double target, double wire_seconds) {
    const double jump = target - clock_.now();
    if (jump <= 0.0) return;
    comm_ += jump < wire_seconds ? jump : wire_seconds;
    clock_.advance_to(target);
  }

  Transport& transport_;
  int rank_;
  const MachineModel& model_;
  VirtualClock clock_;
  double busy_ = 0.0;
  double comm_ = 0.0;
  double crash_at_;
  double compute_factor_;
  bool crashed_ = false;
  std::map<std::string, std::uint64_t> counters_;
  std::vector<std::string> notes_;

  // Cached "link.SRC->DST.{msgs,bytes}" key strings, indexed by dst, so
  // record_link_traffic never formats on the hot path after first use.
  struct LinkKeys {
    std::string msgs;
    std::string bytes;
  };
  std::vector<LinkKeys> link_keys_;
};

}  // namespace pclust::mpsim
