#pragma once

/// `bmf::MatchingService` — a long-lived matching front-end with versioned
/// wait-free snapshot reads (the read-dominated production story over the
/// dynamic engine; see docs/service.md).
///
/// ## Architecture
///
/// Client threads `submit` `EdgeUpdate`s into a bounded MPSC ingest queue
/// (util/bounded_queue.hpp). One writer thread drains the queue, coalescing
/// whatever has arrived (up to `coalesce_max`) into a single batch, and
/// drives `ReplayEngine::apply_batch`, which applies the batch serially, one
/// update at a time; the queue is the batching boundary. After each
/// committed batch the writer *publishes an epoch*: an immutable
/// `MatchingSnapshot` (compact mate array + size + epoch id, exported by the
/// engine's snapshot hook) installed by an atomic pointer swap. Reader
/// threads answer `mate_of` / `is_matched` / `size` from their
/// `SnapshotReader` handle's cached snapshot — plain loads off immutable
/// memory, no locks, never blocked by the writer.
///
/// ## Bounded staleness (Petuum SSP discipline)
///
/// `max_lag` bounds how far behind the published epoch any read may be,
/// enforced from both sides exactly as in stale-synchronous-parallel
/// parameter servers — either the reader advances or the writer stalls:
///
///  * **readers refresh**: a read first loads the published epoch counter; if
///    the cached snapshot is more than `max_lag` epochs behind it, the handle
///    re-fetches the latest snapshot before answering. Every answer is
///    therefore served from an epoch >= (published epoch at read time) -
///    `max_lag`.
///  * **writer stalls** (`stall_writer = true`): before *publishing* epoch N,
///    the writer blocks until every registered reader has observed epoch
///    >= N - `max_lag`. A reader that stops reading then stops the writer —
///    the SSP contract — so this mode is for closed loops where readers are
///    known to keep polling; `close()` overrides the stall so shutdown always
///    completes.
///
/// ## Determinism boundary
///
/// This is the first subsystem that is deliberately **not** bit-identical
/// replay: how updates coalesce into batches depends on arrival timing, so
/// epoch boundaries (and therefore rebuild *wall-clock* placement) differ run
/// to run. What stays exact is the underlying engine contract: `apply_batch`
/// is bit-identical to the sequential apply loop regardless of batch
/// boundaries, so the matching after U committed updates equals the
/// sequential engine's matching after the same U updates in submission order
/// — every published snapshot carries `updates_applied()` precisely so tests
/// can pin that (tests/test_service.cpp stress suite).
///
/// ## Writer failure
///
/// If the engine throws on the writer thread (`apply_batch` or
/// `export_snapshot`; a `std::bad_alloc` mid-rebuild, say), the writer keeps
/// the exception, closes intake and stops. Nothing from the failed batch is
/// published, so the last good epoch stays the latest. From then on every
/// submit returns false, `flush()` rethrows the stored exception instead of
/// waiting for commits that cannot come, `error()` returns it, and `close()`
/// and the destructor complete without throwing.

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "dynamic/dynamic_matcher.hpp"
#include "dynamic/replay_engine.hpp"
#include "graph/dyn_graph.hpp"
#include "matching/matching_view.hpp"
#include "util/annotations.hpp"
#include "util/bounded_queue.hpp"

namespace bmf {

class MatchingService;

/// Service knobs extend the engine's config, so one struct configures the
/// whole stack and one validation path (`validate_service_config` ->
/// `validate_core_config`) rejects every bad knob the same way.
struct ServiceConfig : DynamicMatcherConfig {
  /// Bounded-staleness window in epochs (>= 1): reads are never served from
  /// a snapshot more than `max_lag` epochs behind the published epoch.
  std::int64_t max_lag = 1;
  /// Ingest queue capacity (>= 1) — the backpressure bound: `submit` blocks
  /// while the backlog is full, `try_submit` refuses.
  std::int64_t queue_capacity = 4096;
  /// Max updates coalesced into one committed batch / published epoch (>= 1).
  std::int64_t coalesce_max = 1024;
  /// SSP writer-side enforcement: stall publication until every registered
  /// reader is within `max_lag` (see the file comment). Off by default —
  /// reader-side refresh already bounds observed staleness.
  bool stall_writer = false;
};

/// Validates service knobs on top of the engine's (`validate_core_config`).
/// Throws std::invalid_argument; `who` prefixes the message.
void validate_service_config(const ServiceConfig& cfg, const char* who);

/// Aggregated service observability: fixed-size writer counters plus the
/// merged reader-side staleness distribution. A consistent copy taken under
/// the stats lock.
struct ServiceStats {
  std::int64_t epochs = 0;             ///< published epochs (excluding epoch 0)
  std::int64_t updates_committed = 0;  ///< updates across all epochs
  std::int64_t rebuilds = 0;           ///< engine rebuilds, as of last publish
  std::int64_t writer_stalls = 0;      ///< publishes that had to SSP-stall
  /// Reads by observed staleness (index = epochs behind at read time, last
  /// bucket = beyond max_lag). The refresh rule makes the last bucket
  /// provably empty; tests assert it.
  std::vector<std::int64_t> staleness_hist;
  std::int64_t reads = 0;  ///< total reads across registered readers
};

/// A per-thread read handle: caches the latest fetched snapshot and answers
/// `MatchingView` queries from it wait-free, refreshing per the SSP rule
/// (file comment). Construct one per reader thread — a handle itself is not
/// thread-safe, but any number of handles read concurrently with the writer.
/// Registration is automatic; the destructor deregisters (and wakes a
/// stalled writer).
class SnapshotReader final : public MatchingView {
 public:
  explicit SnapshotReader(MatchingService& service);
  ~SnapshotReader() override;
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  [[nodiscard]] Vertex num_vertices() const override;
  [[nodiscard]] Vertex mate_of(Vertex v) const override;
  [[nodiscard]] std::int64_t size() const override;
  /// Epoch of the snapshot the next answer would be served from (refreshes
  /// first, like any read).
  [[nodiscard]] std::int64_t epoch() const override;

  /// The whole current snapshot (refreshed per the SSP rule) — for callers
  /// that need a consistent multi-vertex view; reads against the returned
  /// object never refresh, so they stay on one epoch.
  [[nodiscard]] std::shared_ptr<const MatchingSnapshot> snapshot() const;

  /// Staleness (epochs behind the published epoch) of the most recent read,
  /// after any refresh — by the SSP rule always in [0, max_lag].
  [[nodiscard]] std::int64_t last_staleness() const { return last_staleness_; }

 private:
  friend class MatchingService;

  /// The read prologue: observe the published epoch, refresh the cache if it
  /// fell more than max_lag behind, record staleness.
  const MatchingSnapshot& refresh() const;

  MatchingService* svc_;
  mutable std::shared_ptr<const MatchingSnapshot> snap_;
  mutable std::int64_t last_observed_ = 0;
  mutable std::int64_t last_staleness_ = 0;
  /// SSP reader clock for the writer-stall mode: last published epoch this
  /// handle has observed. Written under the registry lock in stall mode (so
  /// the stalled writer cannot miss the advance), relaxed otherwise.
  mutable std::atomic<std::int64_t> observed_{0};
  /// Reads by staleness bucket (merged by MatchingService::stats()).
  mutable std::vector<std::atomic<std::int64_t>> staleness_hist_;
  mutable std::atomic<std::int64_t> reads_{0};
};

class MatchingService {
 public:
  /// Owns a `DynamicMatcher(n, cfg)` (eps, rebuild cadence, seed, shards,
  /// ... all apply), whose `AdjacencyWeakOracle` answers A_weak from the
  /// engine's own graph, so the service holds O(n + m) memory. The epoch-0
  /// snapshot (empty matching) publishes immediately; the writer thread
  /// starts accepting submissions.
  MatchingService(Vertex n, const ServiceConfig& cfg);
  /// Serves a caller-owned engine (any `ReplayEngine`; its own config was
  /// validated at engine construction — `cfg`'s inherited core knobs are
  /// ignored here). The engine must not be mutated behind the service's back
  /// while the writer runs.
  MatchingService(ReplayEngine& engine, const ServiceConfig& cfg);
  ~MatchingService();
  MatchingService(const MatchingService&) = delete;
  MatchingService& operator=(const MatchingService&) = delete;

  /// Every submit entry point checks its updates with `valid_update`
  /// (replay_core.hpp) against the engine's vertex count (empty updates are
  /// legal) and throws std::invalid_argument on the caller's thread before
  /// anything is counted or enqueued.
  ///
  /// Enqueues one update (any thread); blocks while the queue is full.
  /// Returns false iff the service is closed or failed.
  bool submit(const EdgeUpdate& update) BMF_EXCLUDES(flush_mutex_);
  /// Enqueues a span in order, blocking for space; the whole span is checked
  /// before any of it is enqueued. Returns false iff closed (or failed)
  /// part-way.
  bool submit_batch(std::span<const EdgeUpdate> updates)
      BMF_EXCLUDES(flush_mutex_);
  /// Non-blocking submit; returns false if the queue is full, closed or
  /// failed (the open-loop client's drop-and-count path).
  bool try_submit(const EdgeUpdate& update) BMF_EXCLUDES(flush_mutex_);

  /// Blocks until every update submitted before this call has been committed
  /// and its epoch published — or refused (a concurrent submit against a
  /// closing service rolls its count back; flush must not wait for updates
  /// that will never commit). (In stall_writer mode publication can wait on
  /// registered readers — keep them reading, or flush may wait with them.)
  /// Rethrows the writer's exception if the service failed before
  /// everything counted at entry committed.
  void flush() BMF_EXCLUDES(flush_mutex_);

  /// Stops intake, drains what was accepted, publishes the final epoch, and
  /// joins the writer. Idempotent; called by the destructor. Overrides any
  /// SSP writer stall so shutdown always completes.
  void close() BMF_EXCLUDES(close_mutex_);

  /// The latest published snapshot (epoch 0 exists from construction).
  /// Direct use bypasses SSP accounting — readers should normally go through
  /// a `SnapshotReader`.
  [[nodiscard]] std::shared_ptr<const MatchingSnapshot> latest() const {
    return latest_.load(std::memory_order_acquire);
  }
  /// The highest published epoch id.
  [[nodiscard]] std::int64_t current_epoch() const {
    return published_epoch_.load(std::memory_order_acquire);
  }

  /// True while the writer is blocked in the SSP publication gate (stall
  /// mode only) — observability for monitors and the stall tests, which poll
  /// this to synchronize deterministically instead of sleeping.
  [[nodiscard]] bool writer_stalled() const {
    return writer_stalled_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }
  /// The served engine — safe only while the writer is quiescent (before any
  /// submit, after flush() with no concurrent submitters, or after close()).
  [[nodiscard]] const ReplayEngine& engine() const { return *engine_; }
  /// Consistent copy of the service counters + merged reader histograms.
  [[nodiscard]] ServiceStats stats() const
      BMF_EXCLUDES(registry_mutex_, stats_mutex_);
  /// The exception the engine threw on the writer thread, or null while the
  /// service is healthy (see "Writer failure" in the file comment).
  [[nodiscard]] std::exception_ptr error() const BMF_EXCLUDES(flush_mutex_);

 private:
  friend class SnapshotReader;

  /// Shared ctor tail: size the stats histogram, publish epoch 0, start the
  /// writer thread.
  void start();
  void writer_loop();
  /// Minimum SSP reader clock over registered readers; registry lock held.
  [[nodiscard]] std::int64_t min_observed_locked() const
      BMF_REQUIRES(registry_mutex_);
  /// The SSP publication gate's predicate: may epoch `epoch` publish now?
  /// True once every registered reader is within max_lag (or the registry is
  /// empty, or the service is closing — close() lifts the gate).
  [[nodiscard]] bool publish_ready(std::int64_t epoch) const
      BMF_REQUIRES(registry_mutex_);

  ServiceConfig cfg_;
  std::unique_ptr<DynamicMatcher> owned_engine_;
  ReplayEngine* engine_;

  BoundedQueue<EdgeUpdate> queue_;
  std::atomic<std::shared_ptr<const MatchingSnapshot>> latest_;
  std::atomic<std::int64_t> published_epoch_{0};
  std::atomic<std::int64_t> submitted_{0};
  std::atomic<std::int64_t> committed_{0};
  std::atomic<bool> closing_{false};
  std::atomic<bool> writer_stalled_{false};

  /// flush()'s rendezvous lock: committed_ and submitted_ are atomics, but
  /// the lock bridges the committed_ advance and the notify so a flusher
  /// between its predicate check and its wait cannot miss the wakeup. It
  /// also guards the writer's failure, which wakes flushers the same way.
  mutable Mutex flush_mutex_;
  CondVar flush_cv_;
  std::exception_ptr error_ BMF_GUARDED_BY(flush_mutex_);

  /// Guards the reader registry and, in stall mode, readers' observed_
  /// advances (so the stalled writer cannot miss a wakeup).
  mutable Mutex registry_mutex_;
  CondVar stall_cv_;
  std::vector<SnapshotReader*> readers_ BMF_GUARDED_BY(registry_mutex_);

  mutable Mutex stats_mutex_;
  /// Writer-side counters (reader fields merged later).
  ServiceStats wstats_ BMF_GUARDED_BY(stats_mutex_);

  /// Serializes concurrent close() calls; writer_ itself is only assigned
  /// before any other thread exists (start(), from the constructors) and
  /// joined under this lock.
  Mutex close_mutex_;
  std::thread writer_;
};

}  // namespace bmf
