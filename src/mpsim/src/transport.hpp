// Internal shared state of the simulator: mailboxes, abort flag, per-rank
// failure flags, and the fault-injection hooks.
// Not installed; Communicator and runtime share it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <list>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "pclust/mpsim/communicator.hpp"
#include "pclust/mpsim/fault_plan.hpp"
#include "pclust/util/rng.hpp"

namespace pclust::mpsim {

/// Thrown into ranks blocked in a receive when another rank failed with a
/// real (unplanned) error and the whole run is being torn down.
class Aborted : public std::runtime_error {
 public:
  Aborted() : std::runtime_error("mpsim: run aborted by a peer failure") {}
};

class Transport {
 public:
  explicit Transport(int p, const FaultPlan* plan = nullptr)
      : size_(p),
        alive_(static_cast<std::size_t>(p)),
        mailboxes_(static_cast<std::size_t>(p)),
        links_(static_cast<std::size_t>(p) * static_cast<std::size_t>(p)) {
    for (auto& a : alive_) a.store(true, std::memory_order_relaxed);
    if (plan) plan_ = *plan;
  }

  [[nodiscard]] int size() const { return size_; }

  [[nodiscard]] bool alive(int rank) const {
    return alive_[static_cast<std::size_t>(rank)].load(
        std::memory_order_acquire);
  }

  void deliver(int dst, Message msg) {
    // Fault decisions hash (seed, src, dst, per-link ordinal) so they are
    // independent of wall-clock thread interleaving: each link's stream is
    // produced by one sender thread in program order.
    bool duplicate = false;
    if (plan_.drop_probability > 0.0 || plan_.duplicate_probability > 0.0) {
      auto& box = mailboxes_[static_cast<std::size_t>(dst)];
      std::uint64_t ordinal;
      {
        std::lock_guard<std::mutex> lock(box.mutex);
        ordinal = links_[static_cast<std::size_t>(msg.src) *
                             static_cast<std::size_t>(size_) +
                         static_cast<std::size_t>(dst)]++;
      }
      util::SplitMix64 rng(plan_.seed ^
                           (static_cast<std::uint64_t>(msg.src) << 40) ^
                           (static_cast<std::uint64_t>(dst) << 20) ^ ordinal);
      const auto unit = [&rng] {
        return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
      };
      // Reliable-with-retransmit link: every dropped copy delays arrival by
      // one retransmission round trip; the payload is never destroyed.
      while (plan_.drop_probability > 0.0 && unit() < plan_.drop_probability) {
        msg.send_time += plan_.retransmit_delay;
      }
      duplicate = plan_.duplicate_probability > 0.0 &&
                  unit() < plan_.duplicate_probability;
    }

    auto& box = mailboxes_[static_cast<std::size_t>(dst)];
    {
      std::lock_guard<std::mutex> lock(box.mutex);
      box.queue.push_back(msg);
      if (duplicate) box.queue.push_back(std::move(msg));
    }
    box.cv.notify_all();
  }

  /// Wait for a message from (src, tag). Returns kOk with the message,
  /// kRankFailed once src is marked failed and no matching message remains,
  /// or kTimeout after @p timeout_seconds of WALL-clock waiting (< 0 waits
  /// forever). Queued messages always win over a concurrent failure mark:
  /// everything a rank sent before dying stays deliverable.
  RecvStatus take_status(int dst, int src, int tag, Message& out,
                         double timeout_seconds) {
    auto& box = mailboxes_[static_cast<std::size_t>(dst)];
    std::unique_lock<std::mutex> lock(box.mutex);
    const auto deadline =
        timeout_seconds >= 0.0
            ? std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(timeout_seconds))
            : std::chrono::steady_clock::time_point::max();
    while (true) {
      if (aborted_.load(std::memory_order_acquire)) throw Aborted();
      for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
        if (it->src == src && it->tag == tag) {
          out = std::move(*it);
          box.queue.erase(it);
          return RecvStatus::kOk;
        }
      }
      if (!alive(src)) return RecvStatus::kRankFailed;
      if (timeout_seconds >= 0.0) {
        if (box.cv.wait_until(lock, deadline) == std::cv_status::timeout) {
          return RecvStatus::kTimeout;
        }
      } else {
        box.cv.wait(lock);
      }
    }
  }

  /// Mark @p rank dead (planned crash): wake every blocked receiver so it
  /// can re-evaluate. Survivors keep running — this is NOT abort().
  void mark_failed(int rank) {
    alive_[static_cast<std::size_t>(rank)].store(false,
                                                 std::memory_order_release);
    for (auto& box : mailboxes_) {
      std::lock_guard<std::mutex> lock(box.mutex);
      box.cv.notify_all();
    }
  }

  void abort() {
    aborted_.store(true, std::memory_order_release);
    for (auto& box : mailboxes_) {
      std::lock_guard<std::mutex> lock(box.mutex);
      box.cv.notify_all();
    }
  }

 private:
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::list<Message> queue;
  };

  int size_;
  std::vector<std::atomic<bool>> alive_;
  std::vector<Mailbox> mailboxes_;
  /// Per-(src, dst) message ordinals for deterministic fault decisions;
  /// guarded by the destination mailbox mutex.
  std::vector<std::uint64_t> links_;
  FaultPlan plan_;

  std::atomic<bool> aborted_{false};
};

}  // namespace pclust::mpsim
