#pragma once

/// A small work-stealing thread pool shared by the MPC simulator's supersteps
/// (mpc::Cluster), best-of-k oracle sampling and the boosting ensemble.
///
/// Tasks are distributed round-robin across per-worker deques; an idle worker
/// first drains its own deque from the front, then steals from the back of a
/// sibling's. `parallel_for` slices an index range into chunks that claim
/// indices from a shared cursor, and the calling thread participates, so a
/// pool configured for T threads uses T-1 workers plus the caller.
///
/// Determinism contract: parallel_for(n, fn) invokes fn exactly once per
/// index in [0, n); callers must write results into per-index slots (never
/// append to shared containers) and merge in index order after the call
/// returns. All parallel code in this repo follows that discipline, so every
/// result is bit-identical at any thread count — including 1, where the loop
/// runs inline with no pool at all.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
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
  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Fire-and-forget task submission. On a pool of size 1 the task runs
  /// inline before returning. Tasks must not throw: an exception escaping a
  /// submitted task aborts the process (prefer parallel_for, which captures
  /// and rethrows on the calling thread).
  void submit(std::function<void()> task);

  /// Invokes fn(i) for every i in [0, n), potentially concurrently; blocks
  /// until all invocations return. Nested calls from inside a pool worker run
  /// inline (serial) to stay deadlock-free. The first exception thrown by any
  /// fn(i) is rethrown on the calling thread after the loop drains.
  void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn);

  /// The process-wide default pool (hardware-concurrency sized).
  static ThreadPool& global();

  /// A process-wide cached pool of exactly `threads` total concurrency;
  /// threads <= 0 resolves to global(). Pools live for the process lifetime.
  static ThreadPool& shared(int threads);

  /// Resolves a `threads` configuration knob: 0 => hardware concurrency
  /// (at least 1), otherwise the knob itself.
  static int resolve_threads(int threads);

 private:
  struct Worker {
    Mutex mutex;
    // front = index 0, steal = back
    std::vector<std::function<void()>> queue BMF_GUARDED_BY(mutex);
  };

  void worker_loop(std::size_t self);
  bool try_pop_or_steal(std::size_t self, std::function<void()>& out);
  /// Scan every worker queue for pending work. Called with idle_mutex_ held
  /// (the submit-side bridge: submit() touches idle_mutex_ between its queue
  /// push and its notify, so a worker that scans empty under this lock cannot
  /// miss the subsequent notify).
  [[nodiscard]] bool any_task_queued() const BMF_REQUIRES(idle_mutex_);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  Mutex idle_mutex_;
  CondVar idle_cv_;
  /// Shutdown flag; every access is under idle_mutex_ (the annotation pass
  /// demoted it from a redundant atomic — the cv rendezvous already needs the
  /// lock on both sides).
  bool stop_ BMF_GUARDED_BY(idle_mutex_) = false;
  std::atomic<std::uint64_t> round_robin_{0};
};

/// RAII handle for the one legitimate dedicated-thread pattern outside the
/// pool: spawn, run alongside caller work, join. Joining in the destructor
/// means an exception on the spawning thread cannot leak a running thread.
/// tools/determinism_lint.py bans raw `std::thread` construction outside
/// `util/` + `service/`; code that needs such a thread uses this instead.
class DedicatedThread {
 public:
  explicit DedicatedThread(std::function<void()> fn) : thread_(std::move(fn)) {}
  ~DedicatedThread() { join(); }
  DedicatedThread(const DedicatedThread&) = delete;
  DedicatedThread& operator=(const DedicatedThread&) = delete;

  /// Blocks until the thread finishes; idempotent.
  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

/// Runs fn(i) for i in [0, n) with the shared pool for this `threads` knob
/// (0 = hardware concurrency); an effective count of 1 or n <= 1 runs the
/// loop serially inline with no pool machinery.
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

/// Deterministic parallel map-reduce: slot i = map(i), computed in parallel,
/// then combined left-to-right in index order (safe for non-commutative
/// combines). Bit-identical at any thread count.
template <typename T, typename MapFn, typename CombineFn>
T parallel_reduce_threads(int threads, std::int64_t n, T init, MapFn&& map,
                          CombineFn&& combine) {
  std::vector<T> slots(static_cast<std::size_t>(n > 0 ? n : 0));
  parallel_for_threads(threads, n, [&](std::int64_t i) {
    slots[static_cast<std::size_t>(i)] = map(i);
  });
  T acc = std::move(init);
  for (T& slot : slots) acc = combine(std::move(acc), std::move(slot));
  return acc;
}

}  // namespace bmf
