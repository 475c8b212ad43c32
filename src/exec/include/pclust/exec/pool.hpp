// Shared-memory execution layer: a fixed thread pool with dynamically
// chunked parallel loops.
//
// Design notes:
//  - One Pool is created per run (pipeline, engine driver, bench) and passed
//    down explicitly; nothing in pclust spawns hidden threads.
//  - for_range() hands out chunks of at most `grain` indices from a shared
//    cursor, so fast threads steal the tail of slow threads' work
//    ("work-stealing-ish" dynamic scheduling without per-thread deques).
//  - The CALLER participates in its own loop, so for_range() makes progress
//    even when every pool thread is busy with other jobs. This also makes
//    the pool safely shareable by mpsim's simulated ranks: concurrent
//    for_range() calls from different rank threads interleave chunk-wise.
//    A body may itself call for_range() (the BGG+DSD drain's graphs nest
//    their Shingle loops): its lane then runs only chunks of that inner
//    loop, and idle lanes take the oldest loop with chunks left.
//  - Determinism contract: chunk execution ORDER is unspecified, so bodies
//    must only write to disjoint, index-addressed slots. Reductions are then
//    folded serially in index order by the caller (see parallel_map), which
//    keeps every pooled result bit-identical to the threads=1 run.
//  - A Pool of size 1 never spawns threads and runs every loop inline, so
//    threads=1 is exactly the serial code path. A null Pool* means the same
//    one lane (or_serial), so every pooled step is written once, against a
//    pool, and has no hand-written serial twin.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pclust::exec {

class Pool {
 public:
  /// @p threads = 0 picks std::thread::hardware_concurrency(). The pool
  /// spawns threads-1 workers; the caller of for_range is the last lane.
  explicit Pool(unsigned threads = 0);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Number of execution lanes (pool workers + the calling thread), >= 1.
  [[nodiscard]] unsigned size() const { return size_; }

  /// Run body(lo, hi) over every chunk [lo, hi) of [0, n), chunks of at
  /// most @p grain indices (grain 0 is treated as 1). Blocks until all
  /// chunks finished; the first exception thrown by a body is rethrown
  /// here (remaining chunks of the loop are abandoned). Reentrant and
  /// thread-safe: concurrent calls share the worker threads.
  void for_range(std::size_t n, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& body);

 private:
  struct Job {
    std::size_t n = 0;
    std::size_t grain = 1;
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t next = 0;    // first unclaimed index (guarded by pool mutex)
    std::size_t active = 0;  // chunks currently executing
    std::exception_ptr error;
  };

  /// Claim and run one chunk of @p job (which may be null: pick the oldest
  /// incomplete job). Returns false when no chunk was available. Must be
  /// called with @p lock held; releases it while the body runs.
  bool run_one_chunk(std::unique_lock<std::mutex>& lock, Job* job);
  void worker_main();

  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: new chunks available
  std::condition_variable done_cv_;  // callers: a job may have completed
  std::deque<Job*> jobs_;            // active jobs, oldest first
  std::vector<std::thread> workers_;
  unsigned size_ = 1;
  bool stop_ = false;
};

/// The pool a null Pool* stands for: @p pool itself, or a shared one-lane
/// pool that runs every loop inline on the caller's thread.
Pool& or_serial(Pool* pool);

/// Per-index convenience: f(i) for every i in [0, n).
template <typename F>
void parallel_for(Pool& pool, std::size_t n, std::size_t grain, F&& f) {
  pool.for_range(n, grain, [&f](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) f(i);
  });
}

/// Deterministic map: out[i] = f(i). Slots are index-addressed, so the
/// result is independent of chunk scheduling; fold it serially in index
/// order for deterministic reductions.
template <typename T, typename F>
std::vector<T> parallel_map(Pool& pool, std::size_t n, std::size_t grain,
                            F&& f) {
  std::vector<T> out(n);
  pool.for_range(n, grain, [&f, &out](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) out[i] = f(i);
  });
  return out;
}

}  // namespace pclust::exec
