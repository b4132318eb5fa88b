#pragma once

/// Sharded vertex-partition dynamic matching engine.
///
/// The distributed vertex-partition regime (Robinson & Zhu 2025 applied to
/// Section 7 of the paper): the vertex set is partitioned into `k`
/// contiguous shards, and each shard *owns* the per-vertex state of its
/// range —
///
///  * its slice of the flat sorted adjacency (the rows of the owned
///    vertices; an edge {u, v} materializes as two directed copies, one in
///    owner(u)'s slice and one in owner(v)'s), and
///  * the corresponding row range of the A_weak adjacency bit-matrix
///    (ShardedMatrixOracle below).
///
/// The storage layout lives in `ShardedAdjacencyStore`, an AdjacencyStore
/// policy for the shared `DynamicReplayCore` (replay_core.hpp):
/// `ShardedDynamicMatcher` is a thin facade over
/// `DynamicReplayCore<ShardedAdjacencyStore>`, so every decision — the
/// maximal-matching repair, the rebuild-budget replay, and rebuild arming —
/// is literally the same implementation as `DynamicMatcher`'s. Each update
/// that toggles an edge routes its two directed copies to their owning
/// shards' adjacency slices and bit-matrix rows (one coordinator round in
/// the comm ledger), while **all matching commits run through the serial
/// coordinator in update order** and the Theorem 6.2 rebuild budget is
/// replayed globally:
///
///   ShardedDynamicMatcher is **bit-identical to DynamicMatcher** —
///   matchings (mate by mate), graph, rebuild counts *and positions*, and
///   A_weak call counts — at every (shards x threads) combination,
///   including shards = 1 and threads = 1.
///
/// That holds because every ingredient reproduces the sequential decision
/// sequence exactly: shard slices store neighbors ascending (so neighbor
/// scans and `snapshot()` equal DynGraph's), the decision machinery is the
/// one shared core, and the sharded oracle runs MatrixWeakOracle's greedy
/// over shard-owned rows (below), probe for probe.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "dynamic/replay_core.hpp"
#include "dynamic/replay_engine.hpp"
#include "dynamic/weak_oracle.hpp"
#include "graph/bit_matrix.hpp"
#include "graph/dyn_graph.hpp"
#include "graph/graph.hpp"
#include "matching/matching.hpp"

namespace bmf {

/// Contiguous vertex partition into k shards: shard s owns
/// [s * block, min(n, (s+1) * block)) with block = ceil(n / k). The last
/// shard absorbs the remainder, so every vertex has exactly one owner.
class VertexPartition {
 public:
  VertexPartition(Vertex n, int shards);

  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] int shards() const { return k_; }
  [[nodiscard]] int owner(Vertex v) const {
    return block_ == 0 ? 0
                       : static_cast<int>(
                             std::min<Vertex>(v / block_, static_cast<Vertex>(k_ - 1)));
  }
  [[nodiscard]] Vertex begin(int shard) const {
    return std::min<Vertex>(n_, static_cast<Vertex>(shard) * block_);
  }
  [[nodiscard]] Vertex end(int shard) const {
    return shard == k_ - 1 ? n_
                           : std::min<Vertex>(n_, static_cast<Vertex>(shard + 1) *
                                                      block_);
  }
  [[nodiscard]] Vertex size(int shard) const { return end(shard) - begin(shard); }

 private:
  Vertex n_;
  int k_;
  Vertex block_;
};

/// Bytes one exhaustion-sweep candidate arc costs to gather at the
/// coordinator: four int32 fields, namely the arc's scan position, both
/// endpoints and the peer structure.
inline constexpr std::int64_t kSweepArcBytes = 16;

/// One directed copy of a toggled update, owned by the shard holding
/// `vertex`'s row: the message unit of the update-path comm ledger (each
/// toggle routes two, one per endpoint).
struct ShardOp {
  Vertex vertex, other;
  bool insert;
};

/// A_weak over shard-owned bit-matrix row ranges: MatrixWeakOracle's serial
/// probe-and-commit greedy, each row probed in its owning shard's slice, so
/// answers and words_touched() equal MatrixWeakOracle's.
class ShardedMatrixOracle final : public WeakOracle {
 public:
  ShardedMatrixOracle(Vertex n, int shards);

  [[nodiscard]] double lambda() const override { return 0.5; }
  void on_insert(Vertex u, Vertex v) override;
  void on_erase(Vertex u, Vertex v) override;

  [[nodiscard]] Vertex num_vertices() const { return part_.num_vertices(); }
  [[nodiscard]] const VertexPartition& partition() const { return part_; }
  [[nodiscard]] bool bit(Vertex u, Vertex v) const;

  /// Words of row data the probes scanned; equals MatrixWeakOracle's count
  /// on the same queries at every shard count.
  [[nodiscard]] std::int64_t words_touched() const { return words_touched_; }

  /// Rebuild-query gather traffic: each A_weak query's probe results travel
  /// from their owning shards to the greedy commit at the coordinator (one
  /// slot per row, one round per query). Zero at shards = 1.
  [[nodiscard]] std::int64_t query_gather_bytes() const {
    return query_gather_bytes_;
  }
  [[nodiscard]] std::int64_t query_gather_rounds() const {
    return query_gather_rounds_;
  }

 protected:
  WeakQueryResult query_impl(std::span<const Vertex> s, double delta) override;
  WeakQueryResult query_cover_impl(std::span<const Vertex> s_plus,
                                   std::span<const Vertex> s_minus,
                                   double delta) override;

 private:
  /// The greedy behind both query flavors; `consume_plus` distinguishes G[S]
  /// greedy (both endpoints leave the mask, consumed rows skip) from cover
  /// greedy (only the minus copy leaves the mask, every plus row probes).
  WeakQueryResult greedy(std::span<const Vertex> rows, BitVec& avail,
                         bool consume_plus, double delta);

  VertexPartition part_;
  std::vector<BitMatrix> slices_;  ///< shard s: size(s) x n rows
  std::int64_t words_touched_ = 0;
  std::int64_t query_gather_bytes_ = 0;
  std::int64_t query_gather_rounds_ = 0;
};

/// The vertex-partition AdjacencyStore policy: per-shard sorted adjacency
/// slices plus the row-sharded oracle. Satisfies the replay_core.hpp store
/// contract; `toggle` updates both state slices and charges the route.
class ShardedAdjacencyStore {
 public:
  ShardedAdjacencyStore(const VertexPartition& part, ShardedMatrixOracle& oracle);

  [[nodiscard]] Vertex num_vertices() const { return part_.num_vertices(); }
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const;
  /// Neighbors of v ascending, read from the owning shard's slice —
  /// identical to DynGraph::neighbors on the same update stream.
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const { return row(v); }
  /// Assembled across shards in vertex order; equals DynGraph::snapshot().
  [[nodiscard]] Graph snapshot() const;
  [[nodiscard]] WeakOracle& oracle() { return oracle_; }

  bool toggle(const EdgeUpdate& up);

  /// Folds the store's boundary traffic into one ledger; all-zero at
  /// shards = 1. The update side is the routing charged by `toggle`. The
  /// rebuild side prices the core's `rebuilt` counters: each rebuild sends
  /// both directed copies of every snapshot edge to their row owners (one
  /// round), and each exhaustion-sweep iteration gathers its candidate arcs
  /// at the coordinator (one round, kSweepArcBytes per arc); the oracle's
  /// query gathers are added as they were charged.
  [[nodiscard]] CommStats comm_stats(const RebuildStats& rebuilt) const;

  [[nodiscard]] std::int64_t num_edges() const { return m_edges_; }

 private:
  [[nodiscard]] std::vector<Vertex>& row(Vertex v);
  [[nodiscard]] const std::vector<Vertex>& row(Vertex v) const;
  void link(Vertex u, Vertex v);    // directed copy into owner(u)'s slice
  void unlink(Vertex u, Vertex v);  // directed copy out of owner(u)'s slice

  /// Charges one routing round of a toggled update's two directed copies to
  /// the update-path ledger; no-op at shards = 1 (nothing crosses).
  void charge_route();

  const VertexPartition& part_;
  /// shard -> local row -> sorted neighbors (the shard's adjacency slice).
  std::vector<std::vector<std::vector<Vertex>>> slices_;
  std::int64_t m_edges_ = 0;
  ShardedMatrixOracle& oracle_;
  /// Update-path comm ledger (routing traffic), written only by the update
  /// thread.
  std::int64_t batch_bytes_ = 0;
  std::int64_t batch_rounds_ = 0;
};

static_assert(AdjacencyStorePolicy<ShardedAdjacencyStore>,
              "ShardedAdjacencyStore must model AdjacencyStorePolicy");

/// The shared replay-core knobs plus the shard count (replay_core.hpp; the
/// flat facade derives from the same struct, so the engines cannot drift).
struct ShardedMatcherConfig : DynamicCoreConfig {
  /// Vertex shards (>= 1; > n is legal, trailing shards own empty ranges).
  /// Results are bit-identical at any setting.
  int shards = 1;
};

/// The whole `ReplayEngine` surface — apply/apply_batch (bit-identical to
/// `DynamicMatcher` on the same stream at any shards x threads),
/// matching/snapshot/export_snapshot, and the counters incl.
/// rebuild_positions()/rebuild_stats()/comm_stats() (the comm ledger is live
/// at shards > 1, all-zero at shards = 1) — is inherited from
/// `ReplayEngineFacade` (replay_engine.hpp); only the oracle-reading
/// `weak_calls()` and the partition/store extras live here.
class ShardedDynamicMatcher final
    : public ReplayEngineFacade<ShardedDynamicMatcher, ShardedAdjacencyStore> {
 public:
  ShardedDynamicMatcher(Vertex n, const ShardedMatcherConfig& cfg);

  [[nodiscard]] const VertexPartition& partition() const { return part_; }
  [[nodiscard]] const ShardedMatrixOracle& oracle() const { return oracle_; }

  [[nodiscard]] std::int64_t num_edges() const { return store_.num_edges(); }
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const {
    return store_.has_edge(u, v);
  }
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const {
    return store_.neighbors(v);
  }

  [[nodiscard]] std::int64_t weak_calls() const override {
    return oracle_.calls();
  }

 private:
  friend class ReplayEngineFacade<ShardedDynamicMatcher, ShardedAdjacencyStore>;

  VertexPartition part_;
  ShardedMatrixOracle oracle_;
  ShardedAdjacencyStore store_;
  DynamicReplayCore<ShardedAdjacencyStore> core_;
};

}  // namespace bmf
