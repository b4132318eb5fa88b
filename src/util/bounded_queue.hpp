#pragma once

/// Bounded multi-producer / single-consumer ingest queue.
///
/// The matching service's front door: any number of client threads `push`
/// updates, one writer thread `drain`s them in arrival order. The consumer
/// side is deliberately a *drain* (pop everything queued, up to a cap) rather
/// than a pop-one: draining is what turns N queued single updates into one
/// coalesced batch for `apply_batch`, so the queue is the batching boundary.
///
/// Implementation: an annotated mutex + two condition variables over a deque
/// (lock discipline compile-checked under clang `-Wthread-safety`; see
/// util/annotations.hpp and docs/static_analysis.md). The contended path is
/// producer vs. the writer's drain — reader threads of the service never
/// touch the queue, so a blocking implementation here cannot perturb
/// read-side wait-freedom. Capacity is the backpressure mechanism: `push`
/// blocks while full (closed-loop clients stall, SSP-style, instead of
/// growing an unbounded backlog), `try_push` refuses instead (open-loop
/// clients count the rejection and move on).
///
/// Every wait is an explicit predicate loop over guarded state inside the
/// annotated lock scope, and every notify happens after the lock is released
/// — the annotation pass found `push_all` signalling the consumer while still
/// holding the mutex on each element, which made the woken consumer block
/// straight back on the lock. Producers now notify at wait boundaries only:
/// right before blocking on a full queue (the consumer is the only source of
/// space) and once after the lock is dropped.
///
/// Close semantics: after `close()`, pushes fail fast; drains keep returning
/// queued items until the queue is empty, then return 0 forever — the writer
/// thread's natural shutdown signal (nothing already accepted is dropped).

#include <cstddef>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "util/annotations.hpp"
#include "util/assert.hpp"

namespace bmf {

template <class T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    BMF_REQUIRE(capacity >= 1, "BoundedQueue: capacity must be >= 1");
  }

  /// Blocks while full; returns false iff the queue was closed (the item is
  /// then dropped).
  bool push(T item) BMF_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (items_.size() >= capacity_ && !closed_) not_full_.wait(mutex_);
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Pushes every element in order, blocking for space as needed; returns
  /// false iff the queue closed part-way (remaining elements are dropped,
  /// already-queued ones stay consumable). The consumer is woken when the
  /// producer blocks for space and once at the end — the single consumer
  /// drains everything queued either way, so per-element signalling would
  /// only add wakeups that go straight back to sleep on the mutex.
  bool push_all(std::span<const T> items) BMF_EXCLUDES(mutex_) {
    bool queued_unannounced = false;
    MutexLock lock(mutex_);
    for (const T& item : items) {
      while (items_.size() >= capacity_ && !closed_) {
        if (queued_unannounced) {
          not_empty_.notify_one();
          queued_unannounced = false;
        }
        not_full_.wait(mutex_);
      }
      if (closed_) {
        lock.unlock();
        if (queued_unannounced) not_empty_.notify_one();
        return false;
      }
      items_.push_back(item);
      queued_unannounced = true;
    }
    lock.unlock();
    if (queued_unannounced) not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; returns false if full or closed.
  bool try_push(T item) BMF_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Single-consumer drain: blocks until at least one item is queued (or the
  /// queue is closed), then moves up to `max_items` into `out` (cleared
  /// first) in arrival order. Returns out.size(); 0 means closed-and-empty.
  /// If `backlog` is non-null it receives the queue depth observed at the
  /// drain (drained items + items left behind).
  std::size_t drain(std::vector<T>& out, std::size_t max_items,
                    std::size_t* backlog = nullptr) BMF_EXCLUDES(mutex_) {
    out.clear();
    MutexLock lock(mutex_);
    while (items_.empty() && !closed_) not_empty_.wait(mutex_);
    if (backlog != nullptr) *backlog = items_.size();
    const std::size_t take = std::min(items_.size(), max_items);
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    lock.unlock();
    if (take > 0) not_full_.notify_all();
    return take;
  }

  /// Closes the queue: subsequent pushes fail, blocked pushers wake and fail,
  /// drains serve the remaining backlog then return 0. Idempotent.
  void close() BMF_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const BMF_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return closed_;
  }

  /// Instantaneous depth (racy by nature; for stats and tests).
  [[nodiscard]] std::size_t size() const BMF_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_;
  /// Signalled when items arrive (consumer side) / when space or closure
  /// appears (producer side); both predicates read only guarded state.
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ BMF_GUARDED_BY(mutex_);
  bool closed_ BMF_GUARDED_BY(mutex_) = false;
};

}  // namespace bmf
