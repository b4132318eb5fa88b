#pragma once

/// The abstract dynamic-engine surface.
///
/// `ReplayEngine` is everything generic code needs from a dynamic engine —
/// the matching service's writer, the differential harness, bench state
/// collectors. `DynamicMatcher` (dynamic_matcher.hpp) is the library's one
/// implementation; the service also serves caller-owned implementations,
/// such as perfbench's forwarding decorators and the tests' fault-injecting
/// stub.
///
/// `LiveEngineView` adapts an engine to the `MatchingView` read API
/// (matching_view.hpp): exact answers straight off the live matching, epoch =
/// update count. It reads the writer's mutable state, so unlike service
/// snapshots it must not be used concurrently with updates.

#include <cstdint>
#include <span>
#include <vector>

#include "dynamic/replay_core.hpp"
#include "graph/dyn_graph.hpp"
#include "graph/graph.hpp"
#include "matching/matching.hpp"
#include "matching/matching_view.hpp"

namespace bmf {

class LiveEngineView;

/// Counters for overlapping rebuilds with updates, which no engine does:
/// always all zeros. Kept only for `ReplayEngine::overlap_stats()`.
struct ReplayOverlapStats {
  std::int64_t overlapped_rebuilds = 0;
  std::int64_t overlap_windows = 0;
  std::int64_t overlap_windows_with_deletions = 0;
  std::int64_t overlapped_updates = 0;
  std::int64_t overlapped_deletions = 0;
  std::int64_t deletion_mispredictions = 0;
};

/// Abstract surface of a dynamic engine. For a fixed config, every method
/// below except `comm_stats()` returns bit-identical values across thread
/// counts, shard counts and batch sizes (the determinism contract,
/// docs/replay_core.md).
class ReplayEngine {
 public:
  virtual ~ReplayEngine() = default;

  /// Throws std::invalid_argument on an invalid update before any counter
  /// or state moves.
  virtual void apply(const EdgeUpdate& update) = 0;
  /// Validates the whole batch before mutation, then calls `apply`'s
  /// sequential step per element in order. Exception guarantee: an invalid
  /// update anywhere in the batch throws std::invalid_argument before the
  /// first mutation; any later throw (a `std::bad_alloc` mid-rebuild, say)
  /// leaves the batch partly applied.
  virtual void apply_batch(std::span<const EdgeUpdate> batch) = 0;

  [[nodiscard]] virtual Vertex num_vertices() const = 0;
  [[nodiscard]] virtual const Matching& matching() const = 0;
  /// The live graph as a static CSR snapshot (== DynGraph::snapshot()).
  [[nodiscard]] virtual Graph snapshot() const = 0;
  /// Immutable matching snapshot for epoch publication: a pure read, so
  /// exporting never perturbs the replay state.
  [[nodiscard]] virtual MatchingSnapshot export_snapshot(
      std::int64_t epoch) const = 0;

  [[nodiscard]] virtual std::int64_t updates() const = 0;
  [[nodiscard]] virtual std::int64_t rebuilds() const = 0;
  /// A_weak calls issued by the engine's oracle.
  [[nodiscard]] virtual std::int64_t weak_calls() const = 0;
  /// Update positions at which rebuilds fired (golden-trace observability).
  [[nodiscard]] virtual const std::vector<std::int64_t>& rebuild_positions()
      const = 0;
  /// Always all zeros: no engine overlaps rebuilds with updates. Kept only
  /// because perfbench/src/decorators.hpp overrides it; it goes with the
  /// next change to perfbench/.
  [[nodiscard]] virtual const ReplayOverlapStats& overlap_stats() const {
    static const ReplayOverlapStats kNone;
    return kNone;
  }
  /// Folded Theorem 6.2 rebuild counters (replay_core.hpp);
  /// rebuild_stats().weak_calls == weak_calls() exactly.
  [[nodiscard]] virtual const RebuildStats& rebuild_stats() const = 0;
  /// Coordinator message ledger (replay_core.hpp), priced for the
  /// configured shard count: all zero at one shard; monotone, and equal at
  /// every thread count and batch size for a fixed shard count, but not
  /// across shard counts.
  [[nodiscard]] virtual CommStats comm_stats() const = 0;

  void insert(Vertex u, Vertex v) { apply(EdgeUpdate::ins(u, v)); }
  void erase(Vertex u, Vertex v) { apply(EdgeUpdate::del(u, v)); }

  /// MatchingView over the live matching (defined after LiveEngineView).
  [[nodiscard]] LiveEngineView view() const;
};

/// MatchingView adapter over a live engine: exact answers, epoch = update
/// count. Borrows the engine; single-threaded use only (the underlying
/// matching mutates with every update — for concurrent readers use the
/// matching service's snapshots instead).
class LiveEngineView final : public MatchingView {
 public:
  explicit LiveEngineView(const ReplayEngine& engine) : engine_(&engine) {}

  [[nodiscard]] Vertex num_vertices() const override {
    return engine_->num_vertices();
  }
  [[nodiscard]] Vertex mate_of(Vertex v) const override {
    return engine_->matching().mate(v);
  }
  [[nodiscard]] std::int64_t size() const override {
    return engine_->matching().size();
  }
  [[nodiscard]] std::int64_t epoch() const override { return engine_->updates(); }

 private:
  const ReplayEngine* engine_;
};

inline LiveEngineView ReplayEngine::view() const { return LiveEngineView(*this); }

}  // namespace bmf
