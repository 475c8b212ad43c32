#include "pclust/util/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <ctime>
#include <map>
#include <mutex>
#include <string_view>
#include <thread>

#include "pclust/util/io.hpp"
#include "pclust/util/json.hpp"
#include "pclust/util/memsize.hpp"
#include "pclust/util/metrics.hpp"

namespace pclust::util::telemetry {

namespace {

std::string iso_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Summarize one latency histogram snapshot as an object (integer
/// microsecond percentiles, bucket-upper-bound resolution).
void write_histogram_summary(JsonWriter& w, const char* key,
                             const SizeHistogram::Snapshot& h) {
  w.key(key).begin_object();
  w.key("count").value(h.count);
  w.key("mean").value(h.mean());
  w.key("p50").value(h.percentile(50));
  w.key("p95").value(h.percentile(95));
  w.key("p99").value(h.percentile(99));
  w.key("max").value(h.max);
  w.end_object();
}

/// The wall watchdog's no-progress window: ten sampler intervals, at
/// least 10 s.
double wall_stall_seconds(const TelemetryConfig& config) {
  return std::max(10.0 * config.interval, 10.0);
}

struct RankEntry {
  std::string level;
  double busy = 0.0, comm = 0.0, idle = 0.0;           // cumulative
  double em_busy = 0.0, em_comm = 0.0, em_idle = 0.0;  // emitted baseline
};

class State {
 public:
  static State& instance() {
    static State s;
    return s;
  }

  void enable(const TelemetryConfig& config) {
    disable();
    std::FILE* out =
        io::io().open_stream(io::ArtifactClass::kTelemetry, config.path, "w");
    if (!out) {
      throw std::runtime_error("telemetry: cannot open " + config.path +
                               " for writing");
    }
    {
      std::lock_guard lk(mu_);
      cfg_ = config;
      out_ = out;
      seq_ = 0;
      records_ = samples_ = warnings_ = stalls_ = 0;
      drop_warning_pending_ = false;
      t0_ = std::chrono::steady_clock::now();
      phase_active_ = false;
      phase_.clear();
      fatal_.store(false, std::memory_order_relaxed);
      fatal_message_.clear();
      WatchdogLimits limits;
      limits.stall_seconds = wall_stall_seconds(config);
      watchdog_ = WatchdogPolicy(limits);
      prev_metrics_ = metrics().snapshot();
      prev_wall_t_ = 0.0;
      prev_wall_done_ = 0;
      have_wall_prev_ = false;
    }
    {
      std::lock_guard lk(virtual_mu_);
      ranks_.clear();
      rt_hist_.reset();
    }
    reset_progress();
    emit("start", /*wall_fields=*/true, [&](JsonWriter& w) {
      w.key("schema").value("pclust-telemetry");
      w.key("version").value(std::int64_t{1});
      w.key("command").value(config.command);
      w.key("interval").value(config.interval);
      w.key("watchdog").begin_object();
      w.key("wall_stall_seconds").value(wall_stall_seconds(config));
      w.key("virtual_stall_seconds").value(config.virtual_stall_seconds);
      w.key("deadline_seconds").value(config.watchdog_deadline);
      w.end_object();
    });
    enabled_.store(true, std::memory_order_release);
    stop_.store(false, std::memory_order_relaxed);
    sampler_ = std::thread([this] { run_sampler(); });
  }

  void disable() {
    if (!enabled_.load(std::memory_order_acquire)) return;
    enabled_.store(false, std::memory_order_release);
    {
      std::lock_guard lk(cv_mu_);
      stop_.store(true, std::memory_order_relaxed);
    }
    cv_.notify_all();
    if (sampler_.joinable()) sampler_.join();
    emit("end", /*wall_fields=*/true, [&](JsonWriter& w) {
      w.key("samples").value(samples_);
      w.key("warnings").value(warnings_);
      w.key("stalls").value(stalls_);
    });
    std::lock_guard lk(mu_);
    std::fclose(out_);
    out_ = nullptr;
  }

  [[nodiscard]] bool on() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  void phase_begin(const std::string& name, bool virtual_time, int ranks,
                   int masters) {
    {
      std::lock_guard lk(virtual_mu_);
      ranks_.clear();
      rt_hist_.reset();
      next_virtual_sample_ = virtual_interval();
      prev_virtual_vt_ = 0.0;
      prev_virtual_done_ = 0;
      last_progress_vt_ = 0.0;
      max_gap_virtual_ = 0.0;
      virtual_stall_warned_ = false;
    }
    reset_progress();
    {
      std::lock_guard lk(mu_);
      phase_ = name;
      phase_active_ = true;
      phase_virtual_ = virtual_time;
      phase_started_ = now();
      last_progress_wall_.store(phase_started_, std::memory_order_relaxed);
      max_gap_wall_ = 0.0;
      watchdog_.phase_reset();
    }
    emit("phase", /*wall_fields=*/true, [&](JsonWriter& w) {
      w.key("event").value("begin");
      w.key("phase").value(name);
      w.key("mode").value(virtual_time ? "virtual" : "wall");
      w.key("ranks").value(std::int64_t{ranks});
      w.key("masters").value(std::int64_t{masters});
    });
  }

  void phase_end(const std::string& name, double seconds) {
    SizeHistogram::Snapshot rt;
    double max_gap_virtual = 0.0;
    {
      std::lock_guard lk(virtual_mu_);
      rt = rt_hist_.snapshot();
      max_gap_virtual = max_gap_virtual_;
    }
    double max_gap_wall = 0.0;
    {
      std::lock_guard lk(mu_);
      phase_active_ = false;
      const double gap =
          now() - last_progress_wall_.load(std::memory_order_relaxed);
      max_gap_wall = std::max(max_gap_wall_, gap);
      watchdog_.phase_reset();
    }
    emit("phase", /*wall_fields=*/true, [&](JsonWriter& w) {
      w.key("event").value("end");
      w.key("phase").value(name);
      w.key("seconds").value(seconds);
      write_progress(w);
      w.key("max_progress_gap").begin_object();
      w.key("wall").value(max_gap_wall);
      w.key("virtual").value(max_gap_virtual);
      w.end_object();
      if (rt.count > 0) write_histogram_summary(w, "round_trip_us", rt);
    });
  }

  void progress_enqueued(std::uint64_t n) {
    enqueued_.fetch_add(n, std::memory_order_relaxed);
  }

  void progress_done(std::uint64_t n) {
    done_.fetch_add(n, std::memory_order_relaxed);
    last_progress_wall_.store(now(), std::memory_order_relaxed);
  }

  void progress_done_virtual(std::uint64_t n, double vt) {
    done_.fetch_add(n, std::memory_order_relaxed);
    last_progress_wall_.store(now(), std::memory_order_relaxed);
    std::lock_guard lk(virtual_mu_);
    const double gap = vt - last_progress_vt_;
    if (gap > 0.0) {
      max_gap_virtual_ = std::max(max_gap_virtual_, gap);
      const double limit = cfg_.virtual_stall_seconds;
      if (limit > 0.0 && gap > limit && !virtual_stall_warned_) {
        virtual_stall_warned_ = true;
        emit("warning", /*wall_fields=*/false, [&](JsonWriter& w) {
          w.key("kind").value("stall");
          w.key("mode").value("virtual");
          w.key("phase").value(phase_);
          w.key("stalled_seconds").value(gap);
          w.key("vt").value(vt);
          w.key("message")
              .value("no progress for " + std::to_string(gap) +
                     " virtual seconds (threshold " + std::to_string(limit) +
                     "s) — a straggling or dead rank is gating the round");
        });
        std::lock_guard lk2(mu_);
        ++warnings_;
        ++stalls_;
      }
      last_progress_vt_ = vt;
    }
  }

  void progress_merges(std::uint64_t n) {
    merges_.fetch_add(n, std::memory_order_relaxed);
  }

  void record_rank(int rank, const char* level, double busy, double comm,
                   double idle) {
    std::lock_guard lk(virtual_mu_);
    RankEntry& e = ranks_[rank];
    if (e.level.empty()) e.level = level;
    e.busy = busy;
    e.comm = comm;
    e.idle = idle;
  }

  void record_round_trip(double virtual_seconds) {
    rt_hist_.add(static_cast<std::uint64_t>(virtual_seconds * 1e6));
  }

  void virtual_tick(double vt) {
    std::lock_guard lk(virtual_mu_);
    if (vt < next_virtual_sample_) return;
    while (next_virtual_sample_ <= vt) {
      next_virtual_sample_ += virtual_interval();
    }
    const std::uint64_t done = done_.load(std::memory_order_relaxed);
    const std::uint64_t enq = enqueued_.load(std::memory_order_relaxed);
    const double dt = vt - prev_virtual_vt_;
    const double rate =
        dt > 0.0 ? static_cast<double>(done - prev_virtual_done_) / dt : 0.0;
    const SizeHistogram::Snapshot rt = rt_hist_.snapshot();
    emit("sample", /*wall_fields=*/false, [&](JsonWriter& w) {
      w.key("mode").value("virtual");
      w.key("phase").value(phase_);
      w.key("vt").value(vt);
      write_progress(w);
      w.key("rate").value(rate);
      if (rate > 0.0 && enq > done) {
        w.key("eta_seconds").value(static_cast<double>(enq - done) / rate);
      }
      if (rt.count > 0) write_histogram_summary(w, "round_trip_us", rt);
      w.key("ranks").begin_array();
      for (auto& [rank, e] : ranks_) {
        w.begin_object();
        w.key("rank").value(std::int64_t{rank});
        w.key("level").value(e.level);
        w.key("busy").value(e.busy - e.em_busy);
        w.key("comm").value(e.comm - e.em_comm);
        w.key("idle").value(e.idle - e.em_idle);
        w.end_object();
        e.em_busy = e.busy;
        e.em_comm = e.comm;
        e.em_idle = e.idle;
      }
      w.end_array();
    });
    {
      std::lock_guard lk2(mu_);
      ++samples_;
    }
    prev_virtual_vt_ = vt;
    prev_virtual_done_ = done;
  }

  void poll_deadline() {
    if (!fatal_.load(std::memory_order_relaxed)) return;
    std::string message;
    {
      std::lock_guard lk(mu_);
      message = fatal_message_;
    }
    throw WatchdogDeadlineExceeded(message);
  }

  [[nodiscard]] TelemetryStatus status() {
    TelemetryStatus s;
    s.enabled = on();
    std::lock_guard lk(mu_);
    if (!s.enabled && out_ == nullptr) return s;
    s.path = cfg_.path;
    s.interval = cfg_.interval;
    s.records = records_;
    s.samples = samples_;
    s.warnings = warnings_;
    s.stalls = stalls_;
    s.fatal = fatal_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  State() = default;

  [[nodiscard]] double now() const {
    const std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - t0_;
    return d.count();
  }

  [[nodiscard]] double virtual_interval() const {
    return cfg_.virtual_interval > 0.0 ? cfg_.virtual_interval
                                       : cfg_.interval;
  }

  void reset_progress() {
    enqueued_.store(0, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    merges_.store(0, std::memory_order_relaxed);
  }

  void write_progress(JsonWriter& w) {
    w.key("progress").begin_object();
    w.key("enqueued").value(enqueued_.load(std::memory_order_relaxed));
    w.key("done").value(done_.load(std::memory_order_relaxed));
    w.key("merges").value(merges_.load(std::memory_order_relaxed));
    w.end_object();
  }

  /// Append one record: common header (type, seq, and — for wall-domain
  /// records — t/ts) plus the caller's fields, one line, flushed.
  template <typename Fill>
  void emit(const char* type, bool wall_fields, const Fill& fill) {
    std::lock_guard lk(mu_);
    if (!out_) return;
    JsonWriter w;
    w.begin_object();
    w.key("type").value(type);
    w.key("seq").value(seq_++);
    if (wall_fields) {
      w.key("t").value(now());
      w.key("ts").value(iso_timestamp());
    }
    fill(w);
    w.end_object();
    // Every append is gated by the IoEnv: a (real or injected) telemetry
    // write failure drops this record and counts it — observability loss
    // must never abort the run or alter the family output. The drop is
    // surfaced in-band as a warning record on the next healthy append.
    if (!io::io().admit_append(io::ArtifactClass::kTelemetry)) {
      io::io().count_dropped(io::ArtifactClass::kTelemetry);
      drop_warning_pending_ = true;
      return;
    }
    if (drop_warning_pending_) {
      drop_warning_pending_ = false;
      JsonWriter warn;
      warn.begin_object();
      warn.key("type").value("warning");
      warn.key("seq").value(seq_++);
      warn.key("kind").value("io_drop");
      warn.key("dropped")
          .value(io::io().dropped(io::ArtifactClass::kTelemetry));
      warn.end_object();
      std::fprintf(out_, "%s\n", warn.str().c_str());
    }
    std::fprintf(out_, "%s\n", w.str().c_str());
    std::fflush(out_);
    ++records_;
  }

  void run_sampler() {
    std::unique_lock lk(cv_mu_);
    while (!stop_.load(std::memory_order_relaxed)) {
      cv_.wait_for(lk, std::chrono::duration<double>(cfg_.interval));
      if (stop_.load(std::memory_order_relaxed)) break;
      sample_wall();
    }
  }

  void sample_wall() {
    const MetricsSnapshot snap = metrics().snapshot();
    const double t = now();
    const std::uint64_t done = done_.load(std::memory_order_relaxed);
    const std::uint64_t enq = enqueued_.load(std::memory_order_relaxed);
    const std::uint64_t rss_kb = current_rss_bytes() / 1024;
    const std::uint64_t hwm_kb = peak_rss_bytes() / 1024;

    std::string phase;
    bool phase_active = false;
    double phase_started = 0.0;
    double prev_t = 0.0;
    std::uint64_t prev_done = 0;
    bool have_prev = false;
    MetricsSnapshot prev;
    {
      std::lock_guard g(mu_);
      phase = phase_;
      phase_active = phase_active_;
      phase_started = phase_started_;
      prev_t = prev_wall_t_;
      prev_done = prev_wall_done_;
      have_prev = have_wall_prev_;
      prev = prev_metrics_;
      prev_metrics_ = snap;
      prev_wall_t_ = t;
      prev_wall_done_ = done;
      have_wall_prev_ = true;
      if (phase_active) {
        const double gap =
            t - last_progress_wall_.load(std::memory_order_relaxed);
        max_gap_wall_ = std::max(max_gap_wall_, gap);
      }
    }

    const MetricsSnapshot delta = snap.delta_since(prev);
    const double dt = have_prev ? t - prev_t : t;
    const double rate =
        dt > 0.0 ? static_cast<double>(done - prev_done) / dt : 0.0;

    emit("sample", /*wall_fields=*/true, [&](JsonWriter& w) {
      w.key("mode").value("wall");
      if (phase_active) w.key("phase").value(phase);
      w.key("rss_kb").value(rss_kb);
      w.key("hwm_kb").value(hwm_kb);
      write_progress(w);
      if (phase_active) {
        w.key("rate").value(rate);
        if (rate > 0.0 && enq > done) {
          w.key("eta_seconds").value(static_cast<double>(enq - done) / rate);
        }
      }
      w.key("counters").begin_object();
      for (const auto& [name, value] : delta.counters) {
        if (value != 0) w.key(name).value(value);
      }
      w.end_object();
    });
    {
      std::lock_guard g(mu_);
      ++samples_;
    }

    // Watchdog: stall, heartbeat-retry spikes, RSS slope.
    std::uint64_t retries = 0;
    for (const auto& [name, value] : snap.counters) {
      constexpr std::string_view kSuffix = ".link_retries";
      if (name.size() >= kSuffix.size() &&
          name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                       kSuffix) == 0) {
        retries += value;
      }
    }
    WatchdogInputs in;
    in.t = t;
    in.phase_active = phase_active;
    in.phase_started = phase_started;
    in.done = done;
    in.last_progress = last_progress_wall_.load(std::memory_order_relaxed);
    in.link_retries = retries;
    in.rss_kb = rss_kb;

    std::vector<WatchdogWarning> warns;
    {
      std::lock_guard g(mu_);
      warns = watchdog_.observe(in);
    }
    for (const WatchdogWarning& warn : warns) {
      emit("warning", /*wall_fields=*/true, [&](JsonWriter& w) {
        w.key("kind").value(warn.kind);
        w.key("mode").value("wall");
        if (phase_active) w.key("phase").value(phase);
        w.key("stalled_seconds").value(warn.stalled_seconds);
        w.key("message").value(warn.message);
      });
      std::lock_guard g(mu_);
      ++warnings_;
      if (warn.kind == "stall") ++stalls_;
    }

    // Fatal wall stall: emit once, then make poll_deadline() throw at the
    // next cooperative point.
    if (cfg_.watchdog_deadline > 0.0 && phase_active &&
        !fatal_.load(std::memory_order_relaxed)) {
      const double stalled = t - in.last_progress;
      if (stalled > cfg_.watchdog_deadline) {
        const std::string message =
            "watchdog deadline: no progress in phase " + phase + " for " +
            std::to_string(stalled) + "s (deadline " +
            std::to_string(cfg_.watchdog_deadline) + "s)";
        emit("fatal", /*wall_fields=*/true, [&](JsonWriter& w) {
          w.key("kind").value("watchdog_deadline");
          w.key("phase").value(phase);
          w.key("stalled_seconds").value(stalled);
          w.key("message").value(message);
        });
        std::lock_guard g(mu_);
        fatal_message_ = message;
        fatal_.store(true, std::memory_order_relaxed);
      }
    }
  }

  // Emission + stream/phase bookkeeping.
  std::mutex mu_;
  TelemetryConfig cfg_;
  std::FILE* out_ = nullptr;
  std::uint64_t seq_ = 0;
  std::uint64_t records_ = 0, samples_ = 0, warnings_ = 0, stalls_ = 0;
  bool drop_warning_pending_ = false;
  std::chrono::steady_clock::time_point t0_{};
  std::string phase_;
  bool phase_active_ = false;
  bool phase_virtual_ = false;
  double phase_started_ = 0.0;
  double max_gap_wall_ = 0.0;
  WatchdogPolicy watchdog_{WatchdogLimits{}};
  MetricsSnapshot prev_metrics_;
  double prev_wall_t_ = 0.0;
  std::uint64_t prev_wall_done_ = 0;
  bool have_wall_prev_ = false;
  std::string fatal_message_;

  // Hot-path flags and counters (any thread).
  std::atomic<bool> enabled_{false};
  std::atomic<bool> fatal_{false};
  std::atomic<std::uint64_t> enqueued_{0}, done_{0}, merges_{0};
  std::atomic<double> last_progress_wall_{0.0};

  // Virtual sampling domain (clock-owning threads).
  std::mutex virtual_mu_;
  std::map<int, RankEntry> ranks_;
  SizeHistogram rt_hist_;
  double next_virtual_sample_ = 0.0;
  double prev_virtual_vt_ = 0.0;
  std::uint64_t prev_virtual_done_ = 0;
  double last_progress_vt_ = 0.0;
  double max_gap_virtual_ = 0.0;
  bool virtual_stall_warned_ = false;

  // Sampler thread.
  std::thread sampler_;
  std::mutex cv_mu_;
  std::condition_variable cv_;
  std::atomic<bool> stop_{false};
};

}  // namespace

void enable(const TelemetryConfig& config) {
  State::instance().enable(config);
}
void disable() { State::instance().disable(); }
bool enabled() { return State::instance().on(); }

void phase_begin(const std::string& name, bool virtual_time, int ranks,
                 int masters) {
  if (!enabled()) return;
  State::instance().phase_begin(name, virtual_time, ranks, masters);
}
void phase_end(const std::string& name, double seconds) {
  if (!enabled()) return;
  State::instance().phase_end(name, seconds);
}

void progress_enqueued(std::uint64_t n) {
  if (!enabled()) return;
  State::instance().progress_enqueued(n);
}
void progress_done(std::uint64_t n) {
  if (!enabled()) return;
  State::instance().progress_done(n);
}
void progress_done_virtual(std::uint64_t n, double virtual_now) {
  if (!enabled()) return;
  State::instance().progress_done_virtual(n, virtual_now);
}
void progress_merges(std::uint64_t n) {
  if (!enabled()) return;
  State::instance().progress_merges(n);
}

void record_rank(int rank, const char* level, double busy, double comm,
                 double idle) {
  if (!enabled()) return;
  State::instance().record_rank(rank, level, busy, comm, idle);
}
void record_round_trip(double virtual_seconds) {
  if (!enabled()) return;
  State::instance().record_round_trip(virtual_seconds);
}
void virtual_tick(double virtual_now) {
  if (!enabled()) return;
  State::instance().virtual_tick(virtual_now);
}

void poll_deadline() {
  if (!enabled()) return;
  State::instance().poll_deadline();
}

TelemetryStatus status() { return State::instance().status(); }

// ---------------------------------------------------------------------------

double WatchdogPolicy::stalled_seconds(const WatchdogInputs& in) const {
  if (!in.phase_active) return 0.0;
  return in.t - std::max(in.last_progress, in.phase_started);
}

void WatchdogPolicy::phase_reset() {
  stall_warned_ = false;
  rss_warned_ = false;
  rss_history_.clear();
}

std::vector<WatchdogWarning> WatchdogPolicy::observe(
    const WatchdogInputs& in) {
  std::vector<WatchdogWarning> out;

  // Stall: one warning per no-progress episode; progress re-arms it.
  const double stalled = stalled_seconds(in);
  if (in.phase_active) {
    if (stalled > limits_.stall_seconds) {
      if (!stall_warned_) {
        stall_warned_ = true;
        out.push_back(WatchdogWarning{
            "stall",
            "no progress for " + std::to_string(stalled) +
                "s (threshold " + std::to_string(limits_.stall_seconds) +
                "s)",
            stalled});
      }
    } else {
      stall_warned_ = false;
    }
  }

  // Heartbeat-retry spike: delta vs the previous observation.
  if (have_retries_ && in.link_retries >= last_retries_) {
    const std::uint64_t spike = in.link_retries - last_retries_;
    if (spike >= limits_.retry_spike) {
      out.push_back(WatchdogWarning{
          "heartbeat_retries",
          std::to_string(spike) +
              " heartbeat-retry timeouts in one sampling window "
              "(threshold " +
              std::to_string(limits_.retry_spike) +
              ") — links or ranks are struggling",
          0.0});
    }
  }
  last_retries_ = in.link_retries;
  have_retries_ = true;

  // RSS slope: rss_window monotonically increasing samples whose
  // last/first ratio exceeds the growth factor, once per phase.
  rss_history_.push_back(in.rss_kb);
  if (rss_history_.size() > limits_.rss_window) {
    rss_history_.erase(rss_history_.begin());
  }
  if (!rss_warned_ && rss_history_.size() == limits_.rss_window &&
      rss_history_.front() > 0) {
    bool monotone = true;
    for (std::size_t i = 1; i < rss_history_.size(); ++i) {
      if (rss_history_[i] < rss_history_[i - 1]) {
        monotone = false;
        break;
      }
    }
    const double ratio = static_cast<double>(rss_history_.back()) /
                         static_cast<double>(rss_history_.front());
    if (monotone && ratio > limits_.rss_growth_factor) {
      rss_warned_ = true;
      out.push_back(WatchdogWarning{
          "rss_growth",
          "RSS grew monotonically from " +
              std::to_string(rss_history_.front()) + " kB to " +
              std::to_string(rss_history_.back()) + " kB over the last " +
              std::to_string(limits_.rss_window) +
              " samples (factor " + std::to_string(ratio) + ")",
          0.0});
    }
  }
  return out;
}

}  // namespace pclust::util::telemetry
