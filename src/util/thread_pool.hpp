#pragma once

/// A fork-join thread pool for the three loops that fan out: the MPC
/// simulator's supersteps (mpc::Cluster), best-of-k oracle sampling and the
/// boosting ensemble.
///
/// The pool holds one job slot. parallel_for publishes {&fn, n, width} in it,
/// bumps a generation counter and wakes the workers; the calling thread then
/// claims indices from a shared cursor alongside the workers the job needs,
/// so a pool of T threads uses T-1 workers plus the caller. The call returns
/// once each of those workers has checked out. Idle workers block on a
/// condition variable, and concurrent callers take turns on the slot.
///
/// Determinism contract: parallel_for(n, fn) invokes fn exactly once per
/// index in [0, n); callers must write results into per-index slots (never
/// append to shared containers) and merge in index order after the call
/// returns. All parallel code in this repo follows that discipline, so every
/// result is bit-identical at any thread count — including 1, where the loop
/// runs inline with no pool at all.

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"

namespace bmf {

class ThreadPool {
 public:
  /// Total concurrency including the thread that calls parallel_for;
  /// 0 picks std::thread::hardware_concurrency(). A pool of size 1 spawns no
  /// workers and runs everything inline.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured concurrency (workers + the participating caller).
  [[nodiscard]] int size() const { return static_cast<int>(threads_.size()) + 1; }

  /// Invokes fn(i) for every i in [0, n) on at most `width` threads, the
  /// caller included (0 = size()); blocks until all invocations return. A
  /// parallel_for made while a job's fn runs on this thread, on any pool,
  /// runs inline (serial) to stay deadlock-free. Every index runs even after
  /// one throws; the first exception is then rethrown on the calling thread.
  void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn,
                    int width = 0) BMF_EXCLUDES(mutex_);

  /// Resolves a `threads` configuration knob: 0 => hardware concurrency
  /// (at least 1), otherwise the knob itself.
  static int resolve_threads(int threads);

 private:
  void stop_and_join() BMF_EXCLUDES(mutex_);
  void worker_loop(int self) BMF_EXCLUDES(mutex_);
  /// Claims indices from cursor_ until the range is exhausted.
  void run_indices(const std::function<void(std::int64_t)>& fn, std::int64_t n)
      BMF_EXCLUDES(mutex_);

  Mutex mutex_;
  /// Workers wait here for a new generation (or stop_).
  CondVar job_cv_;
  /// Callers wait here for the slot to free and for busy_ to reach 0.
  CondVar done_cv_;
  // The job slot, taken while fn_ is non-null. fn_ points into the caller's
  // frame, so the caller waits for busy_ == 0 before it returns.
  const std::function<void(std::int64_t)>* fn_ BMF_GUARDED_BY(mutex_) = nullptr;
  std::int64_t n_ BMF_GUARDED_BY(mutex_) = 0;
  /// Participating threads, caller included: workers 0 .. width_ - 2 join.
  int width_ BMF_GUARDED_BY(mutex_) = 0;
  std::uint64_t generation_ BMF_GUARDED_BY(mutex_) = 0;
  /// Participating workers that have not yet checked out.
  int busy_ BMF_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ BMF_GUARDED_BY(mutex_);
  bool stop_ BMF_GUARDED_BY(mutex_) = false;
  /// Next unclaimed index; reset under mutex_ before each generation.
  std::atomic<std::int64_t> cursor_{0};
  std::vector<std::thread> threads_;
};

/// Runs fn(i) for i in [0, n) on one process-wide pool sized at hardware
/// concurrency, with min(threads, pool size, n) threads taking part
/// (threads = 0 means hardware concurrency). An effective count of 1 or
/// n <= 1 runs the loop serially inline and never creates the pool.
void parallel_for_threads(int threads, std::int64_t n,
                          const std::function<void(std::int64_t)>& fn);

/// Resolves the thread count for a work-size-gated parallel loop: `threads`
/// when `work >= min_work`, else 1 (the pool round-trip would cost more than
/// the work). Every caller's gate is output-invariant — the parallel path
/// produces bit-identical results — so the gate is purely a performance
/// decision. `force_parallel_small_work(true)` disables all gates process-wide
/// so tests (and sanitizer jobs) can drive the parallel paths on tiny inputs.
[[nodiscard]] int gated_threads(std::int64_t work, std::int64_t min_work,
                                int threads);
void force_parallel_small_work(bool force);

/// RAII scope for force_parallel_small_work: the differential/determinism
/// suites (and the TSan job running them) wrap their parallel runs in this so
/// the size-gated paths genuinely fan out on test-sized inputs.
struct ForceParallelSmallWork {
  ForceParallelSmallWork() { force_parallel_small_work(true); }
  ~ForceParallelSmallWork() { force_parallel_small_work(false); }
  ForceParallelSmallWork(const ForceParallelSmallWork&) = delete;
  ForceParallelSmallWork& operator=(const ForceParallelSmallWork&) = delete;
};

}  // namespace bmf
