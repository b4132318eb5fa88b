#pragma once

/// The shared engine surface over `DynamicReplayCore` facades.
///
/// PR 5 made both dynamic engines thin facades over the one replay core, but
/// each facade still re-declared the whole core accessor surface by hand
/// (`rebuild_positions()`, `rebuild_stats()`, ...), and anything generic over
/// engines — the matching service's writer, the differential harness, bench
/// state collectors — had to be templated or carry facade-specific casts.
/// This header fixes both:
///
///  * `ReplayEngine` is the abstract engine surface: every replay-core facade
///    implements it, so a `ReplayEngine&` is all the matching service (and
///    any test) needs — no facade-specific casts, no templates.
///  * `ReplayEngineFacade<Derived, Store>` is the one home of the core/store
///    forwarding (CRTP over the facade's `core_` / `store_` members): the
///    accessors that used to be duplicated per facade are hoisted here, so
///    the surfaces cannot drift apart again. A facade adds only what is
///    genuinely its own — `weak_calls()` reads its concrete oracle, plus any
///    store-specific extras (`graph()`, `partition()`, ...).
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

/// Abstract surface of a dynamic engine built on `DynamicReplayCore`. All
/// implementations promise the replay determinism contract (replay_core.hpp):
/// for a fixed config, every method below returns bit-identical values across
/// engines, thread counts, shard counts, and batch sizes.
class ReplayEngine {
 public:
  virtual ~ReplayEngine() = default;

  virtual void apply(const EdgeUpdate& update) = 0;
  /// Validates the whole batch before mutation, then calls `apply`'s
  /// sequential step per element in order.
  virtual void apply_batch(std::span<const EdgeUpdate> batch) = 0;

  [[nodiscard]] virtual Vertex num_vertices() const = 0;
  [[nodiscard]] virtual const Matching& matching() const = 0;
  /// The live graph as a static CSR snapshot (== DynGraph::snapshot()).
  [[nodiscard]] virtual Graph snapshot() const = 0;
  /// Immutable matching snapshot for epoch publication (replay_core.hpp).
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
  /// Folded Theorem 6.2 rebuild counters (replay_core.hpp) — bit-identical
  /// across the whole engine grid like every contract counter;
  /// rebuild_stats().weak_calls == weak_calls() exactly.
  [[nodiscard]] virtual const RebuildStats& rebuild_stats() const = 0;
  /// Coordinator message ledger (replay_core.hpp) — all-zero for
  /// single-participant stores; monotone, and equal at every thread count
  /// and batch size for a fixed shard count, but NOT part of the cross-cell
  /// bit-identity contract (it varies with shards).
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

/// CRTP implementation of the `ReplayEngine` surface for a facade holding a
/// `Store store_` and a `DynamicReplayCore<Store> core_` (declare this base a
/// friend). Only `weak_calls()` is left for the facade — it reads the
/// facade's concrete oracle.
template <class Derived, class Store>
class ReplayEngineFacade : public ReplayEngine {
  static_assert(AdjacencyStorePolicy<Store>,
                "ReplayEngineFacade's Store must model "
                "bmf::AdjacencyStorePolicy (src/dynamic/replay_core.hpp)");

 public:
  void apply(const EdgeUpdate& update) final { self().core_.apply(update); }
  void apply_batch(std::span<const EdgeUpdate> batch) final {
    self().core_.apply_batch(batch);
  }

  [[nodiscard]] Vertex num_vertices() const final {
    return self().store_.num_vertices();
  }
  [[nodiscard]] const Matching& matching() const final {
    return self().core_.matching();
  }
  [[nodiscard]] Graph snapshot() const final { return self().store_.snapshot(); }
  [[nodiscard]] MatchingSnapshot export_snapshot(std::int64_t epoch) const final {
    return self().core_.export_snapshot(epoch);
  }

  [[nodiscard]] std::int64_t updates() const final {
    return self().core_.updates();
  }
  [[nodiscard]] std::int64_t rebuilds() const final {
    return self().core_.rebuilds();
  }
  [[nodiscard]] const std::vector<std::int64_t>& rebuild_positions()
      const final {
    return self().core_.rebuild_positions();
  }
  [[nodiscard]] const RebuildStats& rebuild_stats() const final {
    return self().core_.rebuild_stats();
  }
  [[nodiscard]] CommStats comm_stats() const final {
    return self().store_.comm_stats(self().core_.rebuild_stats());
  }

 private:
  [[nodiscard]] Derived& self() { return static_cast<Derived&>(*this); }
  [[nodiscard]] const Derived& self() const {
    return static_cast<const Derived&>(*this);
  }
};

}  // namespace bmf
