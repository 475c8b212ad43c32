#include "pclust/util/memgov.hpp"

#include <algorithm>
#include <utility>

#include "pclust/util/log.hpp"
#include "pclust/util/metrics.hpp"
#include "pclust/util/strings.hpp"

namespace pclust::util {
namespace {

constexpr double kHardExceedFactor = 2.0;
constexpr double kDrainPressure = 0.70;

std::string format_bytes(std::uint64_t bytes) {
  if (bytes >= 1024ull * 1024ull * 1024ull) {
    return format("%.2f GiB", static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0));
  }
  if (bytes >= 1024ull * 1024ull) {
    return format("%.2f MiB", static_cast<double>(bytes) / (1024.0 * 1024.0));
  }
  return format("%llu B", static_cast<unsigned long long>(bytes));
}

}  // namespace

MemoryGovernor& MemoryGovernor::instance() {
  static MemoryGovernor env;
  return env;
}

MemoryGovernor& governor() { return MemoryGovernor::instance(); }

void MemoryGovernor::configure(std::uint64_t budget_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_ = budget_bytes;
  ledger_ = 0;
  high_water_ = 0;
  hard_exceeded_ = false;
  exceeded_ledger_ = 0;
  exceeded_by_.clear();
  phase_ = "run";
  log_.clear();
  if (budget_ > 0) {
    log_line(LogLevel::kInfo, format("memgov: budget %s", format_bytes(budget_).c_str()));
  }
}

std::uint64_t MemoryGovernor::budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_;
}

void MemoryGovernor::set_phase(std::string_view phase) {
  std::lock_guard<std::mutex> lock(mu_);
  phase_.assign(phase);
}

void MemoryGovernor::charge(std::string_view what, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  ledger_ += bytes;
  high_water_ = std::max(high_water_, ledger_);
  metrics().gauge("memgov.high_water_bytes").set(high_water_);
  if (budget_ > 0 && !hard_exceeded_ &&
      static_cast<double>(ledger_) >
          kHardExceedFactor * static_cast<double>(budget_)) {
    hard_exceeded_ = true;
    exceeded_ledger_ = ledger_;
    exceeded_by_.assign(what);
    log_line(LogLevel::kWarn, format("memgov: ledger %s exceeds 2x budget %s after "
                         "charging %s for %.*s",
                         format_bytes(ledger_).c_str(),
                         format_bytes(budget_).c_str(),
                         format_bytes(bytes).c_str(),
                         static_cast<int>(what.size()), what.data()));
  }
}

void MemoryGovernor::release(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  ledger_ = bytes > ledger_ ? 0 : ledger_ - bytes;
}

std::uint64_t MemoryGovernor::ledger() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ledger_;
}

std::uint64_t MemoryGovernor::high_water() const {
  std::lock_guard<std::mutex> lock(mu_);
  return high_water_;
}

bool MemoryGovernor::narrow_drain() {
  std::string phase;
  double p = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (budget_ == 0) return false;
    p = static_cast<double>(high_water_) / static_cast<double>(budget_);
    if (p < kDrainPressure) return false;
    phase = phase_;
  }
  note_degradation(phase, "shrink-drain",
                   format("one graph in flight at peak pressure %.2f", p));
  return true;
}

void MemoryGovernor::note_degradation(std::string_view phase,
                                      std::string_view action,
                                      std::string_view detail) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : log_) {
    if (e.phase == phase && e.action == action) return;
  }
  DegradationEvent event;
  event.phase.assign(phase);
  event.action.assign(action);
  event.detail.assign(detail);
  log_.push_back(std::move(event));
  metrics().counter("memgov.degradations").add(1);
  log_line(LogLevel::kInfo, format("memgov: %.*s %.*s (%.*s)",
                       static_cast<int>(phase.size()), phase.data(),
                       static_cast<int>(action.size()), action.data(),
                       static_cast<int>(detail.size()), detail.data()));
}

std::vector<DegradationEvent> MemoryGovernor::degradation_log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

bool MemoryGovernor::hard_exceeded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hard_exceeded_;
}

void MemoryGovernor::check_phase_boundary(std::string_view phase,
                                          bool resumable) const {
  std::uint64_t ledger;
  std::uint64_t budget;
  std::string by;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!hard_exceeded_) return;
    ledger = exceeded_ledger_;
    budget = budget_;
    by = exceeded_by_;
  }
  const char* guidance =
      resumable ? "checkpoints are flushed; re-run with --resume and a "
                  "larger --mem-budget"
                : "re-run with a larger --mem-budget (or --checkpoint-dir "
                  "to make the run resumable)";
  throw MemoryBudgetExceeded(
      format("memory budget exceeded after phase %.*s: ledger %s (on "
             "charging %s) > 2x budget %s despite degradation; %s",
             static_cast<int>(phase.size()), phase.data(),
             format_bytes(ledger).c_str(), by.c_str(),
             format_bytes(budget).c_str(), guidance));
}

MemoryCharge::MemoryCharge(std::string_view phase,
                           const MemoryBreakdown& footprint)
    : base_("mem.") {
  if (!phase.empty()) {
    base_ += phase;
    base_ += '.';
  }
  base_ += footprint.name;
  base_ += '.';
  total_ = &metrics().gauge(base_ + "total");
  set(footprint);
}

MemoryCharge& MemoryCharge::operator=(MemoryCharge&& other) noexcept {
  if (this != &other) {
    reset();
    base_ = std::exchange(other.base_, {});
    parts_ = std::exchange(other.parts_, {});
    bytes_ = std::exchange(other.bytes_, 0);
    total_ = std::exchange(other.total_, nullptr);
  }
  return *this;
}

MemoryCharge::Part& MemoryCharge::part(std::string_view name) {
  for (Part& p : parts_) {
    if (std::string_view(p.key).substr(base_.size()) == name) return p;
  }
  Part& p = parts_.emplace_back();
  p.key = base_;
  p.key += name;
  if (total_) p.gauge = &metrics().gauge(p.key);
  return p;
}

void MemoryCharge::set(std::string_view name, std::uint64_t bytes) {
  Part& p = part(name);
  if (bytes > p.bytes) {
    governor().charge(p.key, bytes - p.bytes);
  } else if (bytes < p.bytes) {
    governor().release(p.bytes - bytes);
  }
  bytes_ = bytes_ - p.bytes + bytes;
  p.bytes = bytes;
  if (total_) {
    p.gauge->set(bytes);
    total_->set(bytes_);
  }
}

void MemoryCharge::set(const MemoryBreakdown& footprint) {
  for (const auto& [name, bytes] : footprint.parts) set(name, bytes);
}

void MemoryCharge::add(std::string_view name, std::uint64_t bytes) {
  set(name, part(name).bytes + bytes);
}

void MemoryCharge::reset() {
  if (bytes_ > 0) governor().release(bytes_);
  for (Part& p : parts_) p.bytes = 0;
  bytes_ = 0;
}

}  // namespace pclust::util
