// Streaming run telemetry: a process-wide sampler that appends JSONL
// records — metrics-registry deltas, RSS, per-phase progress/ETA, per-rank
// busy/comm/idle deltas, protocol round-trip latency percentiles — to a
// file while the pipeline runs, plus a stall/anomaly watchdog.
//
// Two time domains feed one stream:
//
//   WALL    a background sampler thread wakes every `interval` seconds and
//           emits `sample` records (mode "wall"): counter deltas since the
//           previous wall sample, VmRSS/high-water, phase progress, and an
//           ETA from the observed candidate throughput. The watchdog runs
//           here too: no-progress windows, heartbeat-retry spikes, and
//           monotone RSS growth become `warning` records.
//
//   VIRTUAL during a simulated phase the authoritative rank (flat master /
//           hierarchical root) ticks the sampler once per protocol round
//           with its virtual clock; crossing a virtual-interval boundary
//           emits a `sample` record (mode "virtual") whose content is a
//           pure function of the communication pattern — virtual time,
//           progress, per-rank busy/comm/idle deltas, round-trip
//           percentiles — and carries NO wall-clock fields, so two runs of
//           the same workload produce byte-identical virtual samples (flat
//           topology; hierarchical rank tables are updated from concurrent
//           sub-master threads, so their ordering is best-effort).
//
// The subsystem is observation-only by construction: progress counters are
// relaxed atomics, per-rank figures piggyback on protocol messages whose
// virtual wire cost is a declared constant, and nothing feeds back into
// scheduling — families output is bit-identical with telemetry on or off.
// When disabled every hook is a single relaxed atomic load.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace pclust::util::telemetry {

struct TelemetryConfig {
  /// JSONL output path (truncated at enable).
  std::string path;
  /// Provenance: the producing command, recorded in the `start` record.
  std::string command;
  /// Wall seconds between sampler wakeups (also the virtual-domain
  /// sampling interval unless `virtual_interval` is set). The wall
  /// watchdog's stall window is max(10 * interval, 10s); its retry-spike
  /// and RSS-growth limits are the WatchdogLimits defaults.
  double interval = 1.0;
  /// Virtual seconds between in-phase samples; 0 = use `interval`.
  double virtual_interval = 0.0;
  /// Virtual no-progress window that trips a (deterministic) stall
  /// warning, checked retroactively when progress arrives; 0 = off.
  /// Calibrate against the `max_progress_gap` of a healthy run.
  double virtual_stall_seconds = 0.0;
  /// Wall stall beyond this emits a `fatal` record and makes the next
  /// poll_deadline() throw; 0 = never fatal. Cooperative: polled at phase
  /// boundaries and serial progress points — combine with the protocol's
  /// --phase-deadline to also kill hung simulated phases.
  double watchdog_deadline = 0.0;
};

/// Thrown by poll_deadline() after the watchdog emitted a `fatal` record
/// (wall stall exceeded `watchdog_deadline`). Maps to exit code 1.
class WatchdogDeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Start streaming: truncate `config.path`, write the `start` record, and
/// launch the wall sampler thread. Throws std::runtime_error when the file
/// cannot be opened. Enabling twice restarts the stream.
void enable(const TelemetryConfig& config);

/// Write the `end` record, stop the sampler, and close the stream. Safe to
/// call when disabled (no-op). Also invoked from the process-exit path of
/// the CLI commands, so a crashed run still ends with a parseable file.
void disable();

/// Near-zero-cost check (one relaxed atomic load), safe from any thread.
[[nodiscard]] bool enabled();

/// Mark a pipeline phase. `virtual_time` phases additionally open the
/// virtual sampling domain (see file comment). Resets the per-phase
/// progress counters and round-trip histogram. Call from the orchestrating
/// thread only (no engine threads may be live).
void phase_begin(const std::string& name, bool virtual_time, int ranks,
                 int masters);
/// Close the current phase: emits the `phase`/`end` record carrying the
/// phase seconds, final progress totals, and the maximum observed
/// progress gap per domain (the empirical basis for stall thresholds).
void phase_end(const std::string& name, double seconds);

/// Progress counters for the current phase. Enqueued counts admitted
/// candidates (the ETA denominator), done counts resolved ones, merges
/// counts applied state changes (e.g. union events). Safe from any thread.
void progress_enqueued(std::uint64_t n = 1);
void progress_done(std::uint64_t n = 1);
/// Like progress_done but stamps the virtual clock, feeding the
/// deterministic virtual stall check. Call from clock-owning threads.
void progress_done_virtual(std::uint64_t n, double virtual_now);
void progress_merges(std::uint64_t n = 1);

/// Update one rank's cumulative busy/comm/idle (virtual seconds). Samples
/// emit deltas against the previous sample. Safe from any thread.
void record_rank(int rank, const char* level, double busy, double comm,
                 double idle);

/// Fold one protocol round-trip (dispatch -> matching ack, virtual
/// seconds) into the per-phase latency histogram.
void record_round_trip(double virtual_seconds);

/// Advance the virtual sampling domain; emits `sample` records at
/// virtual-interval crossings. Call once per protocol round from the
/// authoritative rank's thread only.
void virtual_tick(double virtual_now);

/// Throw WatchdogDeadlineExceeded if the watchdog flagged a fatal stall.
/// Call from the orchestrating (main) thread, or from a pool loop body,
/// whose for_range rethrows it on the thread that called it.
void poll_deadline();

/// Point-in-time stream counters, e.g. for the run report's provenance
/// section. All zero when disabled.
struct TelemetryStatus {
  bool enabled = false;
  std::string path;
  double interval = 0.0;
  std::uint64_t records = 0;
  std::uint64_t samples = 0;
  std::uint64_t warnings = 0;
  std::uint64_t stalls = 0;
  bool fatal = false;
};
[[nodiscard]] TelemetryStatus status();

// ---------------------------------------------------------------------------
// Watchdog heuristics as a pure, deterministically testable policy. The
// sampler thread feeds it one observation per wakeup; it answers with the
// warnings to emit. No clocks, no IO.

struct WatchdogInputs {
  double t = 0.0;              ///< seconds since stream start
  bool phase_active = false;
  double phase_started = 0.0;  ///< t at phase begin
  std::uint64_t done = 0;      ///< cumulative phase progress
  double last_progress = 0.0;  ///< t of the latest done increment
  std::uint64_t link_retries = 0;  ///< cumulative heartbeat retries
  std::uint64_t rss_kb = 0;
};

struct WatchdogWarning {
  std::string kind;  ///< "stall" | "heartbeat_retries" | "rss_growth"
  std::string message;
  double stalled_seconds = 0.0;  ///< stall warnings only
};

struct WatchdogLimits {
  double stall_seconds = 10.0;
  std::uint64_t retry_spike = 4;
  double rss_growth_factor = 1.5;
  std::size_t rss_window = 5;  ///< trailing samples for the slope check
};

class WatchdogPolicy {
 public:
  explicit WatchdogPolicy(const WatchdogLimits& limits) : limits_(limits) {}

  /// One observation; returns the warnings this window produced. A stall
  /// episode warns once and re-arms when progress resumes; retry spikes
  /// compare against the previous observation; RSS growth warns once per
  /// phase on `rss_window` monotonically increasing samples whose
  /// last/first ratio exceeds the factor.
  std::vector<WatchdogWarning> observe(const WatchdogInputs& in);

  [[nodiscard]] bool stalled() const { return stall_warned_; }
  /// Seconds the current stall episode has lasted (0 when not stalled).
  [[nodiscard]] double stalled_seconds(const WatchdogInputs& in) const;

  /// Re-arm per-phase state (stall episode, RSS baseline) at phase edges.
  void phase_reset();

 private:
  WatchdogLimits limits_;
  bool stall_warned_ = false;
  std::uint64_t last_retries_ = 0;
  bool have_retries_ = false;
  bool rss_warned_ = false;
  std::vector<std::uint64_t> rss_history_;
};

}  // namespace pclust::util::telemetry
