#include "pclust/exec/pool.hpp"

#include <algorithm>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "pclust/util/metrics.hpp"

namespace pclust::exec {

namespace {

/// glibc gives every thread its own malloc arena and, by default, trims an
/// arena's free top only above twice a dynamic mmap threshold that rises
/// to the largest mapped block ever freed (1–2.5 MB in a pipeline run). A
/// lane that builds and drops a component graph's tables would keep them
/// resident for the life of the process, one graph per lane. Pinning both
/// thresholds at 512 KiB returns a lane's freed tables to the kernel; see
/// DESIGN.md §8. Set once, by the first pool that spawns a thread.
constexpr int kMallocThresholdBytes = 512 * 1024;

void pin_malloc_thresholds() {
#if defined(__GLIBC__)
  static const bool pinned = [] {
    mallopt(M_MMAP_THRESHOLD, kMallocThresholdBytes);
    mallopt(M_TRIM_THRESHOLD, kMallocThresholdBytes);
    return true;
  }();
  (void)pinned;
#endif
}

}  // namespace

Pool::Pool(unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  // A bogus huge request (e.g. a negative CLI value cast to unsigned) would
  // otherwise abort the process once thread creation starts failing.
  size_ = std::min(threads, 1024u);
  if (size_ > 1) pin_malloc_thresholds();
  workers_.reserve(size_ - 1);
  for (unsigned t = 0; t + 1 < size_; ++t) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

Pool::~Pool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool Pool::run_one_chunk(std::unique_lock<std::mutex>& lock, Job* job) {
  if (!job) {
    for (Job* candidate : jobs_) {
      if (candidate->next < candidate->n) {
        job = candidate;
        break;
      }
    }
  }
  if (!job || job->next >= job->n) return false;

  const std::size_t lo = job->next;
  const std::size_t hi = std::min(job->n, lo + job->grain);
  job->next = hi;
  ++job->active;
  lock.unlock();

  std::exception_ptr error;
  try {
    (*job->body)(lo, hi);
  } catch (...) {
    error = std::current_exception();
  }

  lock.lock();
  --job->active;
  if (error) {
    if (!job->error) job->error = error;
    job->next = job->n;  // abandon the remaining chunks
  }
  if (job->next >= job->n && job->active == 0) done_cv_.notify_all();
  return true;
}

void Pool::worker_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this] {
      if (stop_) return true;
      return std::any_of(jobs_.begin(), jobs_.end(),
                         [](const Job* j) { return j->next < j->n; });
    });
    if (stop_) return;
    run_one_chunk(lock, nullptr);
  }
}

Pool& or_serial(Pool* pool) {
  static Pool serial(1);  // spawns no thread; its loops need no lock
  return pool ? *pool : serial;
}

void Pool::for_range(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;

  static util::Counter& jobs = util::metrics().counter("exec.parallel_jobs");
  jobs.add(1);

  if (size_ == 1 || n <= grain) {
    // Serial path: same chunking, caller's thread, no synchronization.
    for (std::size_t lo = 0; lo < n; lo += grain) {
      body(lo, std::min(n, lo + grain));
    }
    return;
  }

  Job job;
  job.n = n;
  job.grain = grain;
  job.body = &body;

  std::unique_lock<std::mutex> lock(mutex_);
  jobs_.push_back(&job);
  work_cv_.notify_all();

  // The caller drives its own job to completion (other lanes help).
  while (run_one_chunk(lock, &job)) {
  }
  done_cv_.wait(lock, [&job] { return job.next >= job.n && job.active == 0; });
  jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
  if (job.error) {
    lock.unlock();
    std::rethrow_exception(job.error);
  }
}

}  // namespace pclust::exec
