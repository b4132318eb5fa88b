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
/// DynamicMatcher is a thin facade: all decision machinery — the
/// maximal-matching repair, the rebuild-budget replay, and rebuild arming —
/// lives in `DynamicReplayCore` (src/dynamic/replay_core.hpp), instantiated
/// here over the flat single-node `FlatAdjacencyStore` (a `DynGraph` plus the
/// borrowed `WeakOracle`). The sharded vertex-partition engine
/// (sharded_matcher.hpp) instantiates the same core over its shard slices, so
/// the bit-identity-critical replay logic has exactly one home. See
/// replay_core.hpp for the determinism contract; it is pinned by the
/// cross-engine differential harness in tests/test_replay_core.cpp and the
/// suites in tests/test_dynamic_batch.cpp.
///
/// Problem1Instance exposes the chunk/query interface verbatim for tests and
/// for composing with other A_weak implementations (e.g. the OMv-backed one);
/// its `apply_chunk` validates a whole chunk, then applies it one update at
/// a time.

#include <cstdint>

#include "dynamic/replay_core.hpp"
#include "dynamic/replay_engine.hpp"
#include "dynamic/weak_oracle.hpp"
#include "graph/dyn_graph.hpp"
#include "matching/matching.hpp"

namespace bmf {

/// All knobs are the shared replay-core set (replay_core.hpp) — the sharded
/// facade derives from the same struct, so the engines cannot drift.
struct DynamicMatcherConfig : DynamicCoreConfig {};

/// The whole `ReplayEngine` surface — apply/apply_batch (determinism
/// contract in replay_core.hpp), matching/snapshot/export_snapshot, and the
/// counters incl. rebuild_positions()/rebuild_stats()/comm_stats() (the flat
/// store is single-participant, so its comm ledger is always all-zero) — is
/// inherited from `ReplayEngineFacade`
/// (replay_engine.hpp); only the oracle-reading `weak_calls()` and the
/// flat-store `graph()` accessor live here.
class DynamicMatcher final
    : public ReplayEngineFacade<DynamicMatcher, FlatAdjacencyStore> {
 public:
  /// The oracle must be empty-initialized for n vertices; the matcher feeds
  /// it every update (Problem 1: the graph starts empty).
  DynamicMatcher(Vertex n, WeakOracle& oracle, const DynamicMatcherConfig& cfg);

  [[nodiscard]] const DynGraph& graph() const { return store_.graph(); }
  [[nodiscard]] std::int64_t weak_calls() const override {
    return oracle_.calls();
  }

 private:
  friend class ReplayEngineFacade<DynamicMatcher, FlatAdjacencyStore>;

  WeakOracle& oracle_;
  FlatAdjacencyStore store_;
  DynamicReplayCore<FlatAdjacencyStore> core_;
};

/// Problem 1 (Section 7.2), verbatim: chunks of exactly alpha*n updates, then
/// up to q adaptive queries answered with the Definition 6.1 guarantee.
class Problem1Instance {
 public:
  Problem1Instance(Vertex n, WeakOracle& oracle, std::int64_t q, double lambda,
                   double delta, double alpha);

  /// Applies one chunk (must contain exactly chunk_size() updates, empty
  /// updates allowed) one update at a time and re-arms the query budget. The
  /// size and every update are checked before the first mutation, so an
  /// invalid chunk throws std::invalid_argument and changes nothing.
  void apply_chunk(std::span<const EdgeUpdate> chunk);

  /// One adaptive query; throws if the per-chunk budget q is exhausted.
  [[nodiscard]] WeakQueryResult query(std::span<const Vertex> s);

  [[nodiscard]] std::int64_t chunk_size() const { return chunk_size_; }
  [[nodiscard]] std::int64_t queries_left() const { return queries_left_; }
  [[nodiscard]] const DynGraph& graph() const { return store_.graph(); }

 private:
  FlatAdjacencyStore store_;  ///< the graph plus the borrowed oracle
  std::int64_t q_;
  double delta_;
  std::int64_t chunk_size_;
  std::int64_t queries_left_ = 0;
};

}  // namespace bmf
