#pragma once

/// Fully dynamic (1+eps)-approximate maximum matching (Theorem 7.1).
///
/// The reduction of [BKS23, BG24, AKK25] (Problem 1) schedules chunks of
/// alpha*n updates followed by at most q adaptive A_weak queries; Theorem 7.1
/// replaces the exponential-in-1/eps query budget with the poly(1/eps)
/// Theorem 6.2 rebuild. DynamicMatcher implements that loop:
///
///  * between rebuilds it maintains a *maximal* matching under updates
///    (insertion: match if both endpoints free; deletion of a matched edge:
///    rematch both endpoints by a neighbor scan), so the answer never
///    degrades below 2-approximate;
///  * a matching that was (1+eps/2)-approximate stays (1+eps)-approximate for
///    ~eps*|M|/4 further updates (each update moves mu and |M| by at most 1),
///    so a Theorem 6.2 rebuild is triggered on that schedule — O(1/eps)
///    rebuilds per Theta(n) updates, each costing poly(1/eps) A_weak calls.
///
/// DynamicMatcher is the library's one dynamic engine: a `DynGraph` plus a
/// `WeakOracle`, behind the `ReplayEngine` surface (replay_engine.hpp) that
/// the matching service drives. Unless a caller lends it an oracle, it owns
/// an `AdjacencyWeakOracle` that answers A_weak from the graph's own sorted
/// rows, so the engine holds O(n + m) memory. `apply_batch` validates the
/// whole batch up front and then runs the sequential step once per update,
/// so a batch is the `apply` loop by construction. `comm_stats()` prices the
/// run for a vertex partition into `cfg.shards` owners (the partition cost
/// model, docs/replay_core.md). The determinism contract is pinned by the
/// differential harness (tests/differential_util.hpp) and the golden traces.
///
/// Problem1Instance exposes the chunk/query interface verbatim for tests and
/// for composing with other A_weak implementations (e.g. the OMv-backed one);
/// its `apply_chunk` validates a whole chunk, then applies it one update at
/// a time.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dynamic/replay_core.hpp"
#include "dynamic/replay_engine.hpp"
#include "dynamic/weak_oracle.hpp"
#include "graph/dyn_graph.hpp"
#include "graph/graph.hpp"
#include "matching/matching.hpp"
#include "matching/matching_view.hpp"

namespace bmf {

class DynamicMatcher final : public ReplayEngine {
 public:
  /// Owns an `AdjacencyWeakOracle` over the engine's own graph.
  DynamicMatcher(Vertex n, const DynamicMatcherConfig& cfg);
  /// Borrows `oracle`, which must be empty-initialized for n vertices; the
  /// matcher feeds it every update (Problem 1: the graph starts empty).
  DynamicMatcher(Vertex n, WeakOracle& oracle, const DynamicMatcherConfig& cfg);
  /// Neither copyable nor movable: the owned oracle reads `g_` in place, so
  /// a moved engine would leave it reading the moved-from graph.
  DynamicMatcher(const DynamicMatcher&) = delete;
  DynamicMatcher& operator=(const DynamicMatcher&) = delete;

  void apply(const EdgeUpdate& update) override;
  void apply_batch(std::span<const EdgeUpdate> batch) override;

  [[nodiscard]] Vertex num_vertices() const override { return g_.num_vertices(); }
  [[nodiscard]] const Matching& matching() const override { return m_; }
  [[nodiscard]] Graph snapshot() const override { return g_.snapshot(); }
  [[nodiscard]] MatchingSnapshot export_snapshot(
      std::int64_t epoch) const override {
    return MatchingSnapshot::of(m_, epoch, updates_);
  }

  [[nodiscard]] std::int64_t updates() const override { return updates_; }
  [[nodiscard]] std::int64_t rebuilds() const override { return rebuilds_; }
  [[nodiscard]] std::int64_t weak_calls() const override {
    return oracle_.calls();
  }
  [[nodiscard]] const std::vector<std::int64_t>& rebuild_positions()
      const override {
    return rebuild_positions_;
  }
  [[nodiscard]] const RebuildStats& rebuild_stats() const override {
    return rebuild_stats_;
  }
  [[nodiscard]] CommStats comm_stats() const override;

  [[nodiscard]] const DynGraph& graph() const { return g_; }

 private:
  void require_valid(const EdgeUpdate& up) const;
  /// The sequential reference step for one already-validated update.
  void apply_valid(const EdgeUpdate& update);
  void try_match(Vertex v);
  void on_structural_change(Vertex u, Vertex v, bool inserted);
  /// Updates allowed between rebuilds at matching size `sz`.
  [[nodiscard]] std::int64_t rebuild_budget(std::int64_t sz) const;
  void maybe_rebuild();
  void rebuild();

  DynamicMatcherConfig cfg_;  ///< validated and resolved
  DynGraph g_;                ///< declared before the oracle that may read it
  std::unique_ptr<WeakOracle> owned_oracle_;
  WeakOracle& oracle_;
  Matching m_;
  std::int64_t updates_ = 0;
  std::int64_t since_rebuild_ = 0;
  std::int64_t rebuilds_ = 0;
  /// Updates that changed edge presence (the update side of comm_stats()).
  std::int64_t toggled_updates_ = 0;
  std::vector<std::int64_t> rebuild_positions_;
  RebuildStats rebuild_stats_;
};

/// Problem 1 (Section 7.2), verbatim: chunks of exactly alpha*n updates, then
/// up to q adaptive queries answered with the Definition 6.1 guarantee.
class Problem1Instance {
 public:
  /// Throws std::invalid_argument before anything else is computed unless
  /// alpha is finite and positive with alpha*n representable as a chunk
  /// size, q >= 1, 0 < lambda <= 1, 0 < delta < 1 and the oracle is at
  /// least lambda-strong.
  Problem1Instance(Vertex n, WeakOracle& oracle, std::int64_t q, double lambda,
                   double delta, double alpha);

  /// Applies one chunk (must contain exactly chunk_size() updates, empty
  /// updates allowed) one update at a time and re-arms the query budget. The
  /// size and every update are checked before the first mutation, so an
  /// invalid chunk throws std::invalid_argument and changes nothing.
  void apply_chunk(std::span<const EdgeUpdate> chunk);

  /// One adaptive query. Throws std::invalid_argument, and spends nothing,
  /// if the per-chunk budget q is exhausted or a vertex of s lies outside
  /// [0, n).
  [[nodiscard]] WeakQueryResult query(std::span<const Vertex> s);

  [[nodiscard]] std::int64_t chunk_size() const { return chunk_size_; }
  [[nodiscard]] std::int64_t queries_left() const { return queries_left_; }
  [[nodiscard]] const DynGraph& graph() const { return g_; }

 private:
  std::int64_t chunk_size_;
  DynGraph g_;
  WeakOracle& oracle_;
  std::int64_t q_;
  double delta_;
  std::int64_t queries_left_ = 0;
};

}  // namespace bmf
