#include "util/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace bmf {
namespace {

/// Set on a worker and on the caller while either runs a job's indices, so
/// a nested parallel_for runs inline instead of waiting for the busy slot.
thread_local bool tl_in_job = false;

}  // namespace

ThreadPool::ThreadPool(int threads) {
  const int workers = resolve_threads(threads) - 1;
  threads_.reserve(static_cast<std::size_t>(workers));
  try {
    for (int i = 0; i < workers; ++i)
      threads_.emplace_back([this, i] { worker_loop(i); });
  } catch (...) {
    // A failed spawn must not destroy the threads already running.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int ThreadPool::resolve_threads(int threads) {
  if (threads > 0) return threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::run_indices(const std::function<void(std::int64_t)>& fn,
                             std::int64_t n) {
  tl_in_job = true;
  for (;;) {
    // relaxed-ok: index claim; fetch_add atomicity alone partitions the range
    const std::int64_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    try {
      fn(i);
    } catch (...) {
      const MutexLock lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }
  tl_in_job = false;
}

void ThreadPool::worker_loop(int self) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::int64_t)>* fn = nullptr;
    std::int64_t n = 0;
    {
      const MutexLock lock(mutex_);
      while (!stop_ && generation_ == seen) job_cv_.wait(mutex_);
      if (stop_) return;
      seen = generation_;
      // A worker the job does not need skips it without touching the cursor.
      if (self >= width_ - 1) continue;
      fn = fn_;
      n = n_;
    }
    run_indices(*fn, n);
    // Check out only after the last call into *fn: the caller may return,
    // and free what fn points at, as soon as busy_ reaches 0.
    const MutexLock lock(mutex_);
    if (--busy_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::int64_t n,
                              const std::function<void(std::int64_t)>& fn,
                              int width) {
  if (n <= 0) return;
  const int cap = width > 0 ? std::min(width, size()) : size();
  const auto participants = static_cast<int>(std::min<std::int64_t>(cap, n));
  if (tl_in_job || participants <= 1) {
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }

  {
    const MutexLock lock(mutex_);
    while (fn_ != nullptr) done_cv_.wait(mutex_);
    fn_ = &fn;
    n_ = n;
    width_ = participants;
    busy_ = participants - 1;
    // relaxed-ok: workers claim only after taking mutex_, which publishes this
    cursor_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  job_cv_.notify_all();
  run_indices(fn, n);

  std::exception_ptr error;
  {
    const MutexLock lock(mutex_);
    while (busy_ != 0) done_cv_.wait(mutex_);
    error = std::exchange(error_, nullptr);
    fn_ = nullptr;
  }
  done_cv_.notify_all();
  if (error) std::rethrow_exception(error);
}

namespace {
std::atomic<bool> g_force_parallel_small_work{false};
}  // namespace

int gated_threads(std::int64_t work, std::int64_t min_work, int threads) {
  // relaxed-ok: test-only toggle, flipped before the pool is exercised
  if (g_force_parallel_small_work.load(std::memory_order_relaxed)) return threads;
  return work >= min_work ? threads : 1;
}

void force_parallel_small_work(bool force) {
  // relaxed-ok: test-only toggle, flipped before the pool is exercised
  g_force_parallel_small_work.store(force, std::memory_order_relaxed);
}

void parallel_for_threads(int threads, std::int64_t n,
                          const std::function<void(std::int64_t)>& fn) {
  const int width = ThreadPool::resolve_threads(threads);
  if (width <= 1 || n <= 1) {
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Process-lifetime: never destroyed, so no exit-time join can race a
  // caller on another thread.
  static ThreadPool* const pool = new ThreadPool(0);
  pool->parallel_for(n, fn, width);
}

}  // namespace bmf
