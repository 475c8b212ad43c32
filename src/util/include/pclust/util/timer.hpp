// Wall-clock timing helpers for benches and phase reports.
#pragma once

#include <chrono>

namespace pclust::util {

/// Monotonic stopwatch, started on construction; reading it does not stop it.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  [[nodiscard]] double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pclust::util
