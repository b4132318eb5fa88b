#pragma once

/// The unified dynamic replay core (Theorem 7.1's update loop, one home).
///
/// Both dynamic engines — `DynamicMatcher` (flat single-node `DynGraph`
/// adjacency) and `ShardedDynamicMatcher` (vertex-partitioned shard slices) —
/// run the same update discipline: the maximal-matching repair, the
/// rebuild-budget replay, and rebuild arming. Following the batch-dynamic
/// literature's separation of update-commit discipline from storage layout
/// (Ghaffari & Trygub 2024; Robinson & Zhu 2025), `DynamicReplayCore<Store>`
/// is that discipline written once, templated over an **AdjacencyStore
/// policy** that owns the storage layout:
///
///  * `FlatAdjacencyStore` (below) — a `DynGraph` plus an external
///    `WeakOracle`; the single-node engine.
///  * `ShardedAdjacencyStore` (sharded_matcher.hpp) — per-shard adjacency
///    slices plus the row-sharded `ShardedMatrixOracle`.
///
/// The policy contract an AdjacencyStore must satisfy — machine-checked by
/// the `bmf::AdjacencyStorePolicy` concept below (shape) and by the
/// `DynamicReplayCore` static_assert cascade (one named diagnostic per
/// missing member; exercised by tests/compile_fail/):
///
///   Vertex num_vertices() const;
///   bool has_edge(Vertex u, Vertex v) const;          // O(log deg)
///   std::span<const Vertex> neighbors(Vertex) const;  // ascending ids
///   Graph snapshot() const;                           // == DynGraph order
///   WeakOracle& oracle();
///   bool toggle(const EdgeUpdate&);   // adjacency + oracle; true iff the
///                                     // update changed edge presence
///   // Coordinator message ledger (CommStats below): the store's own
///   // traffic (update routing, oracle query gathers) plus its price for
///   // the core's rebuilds, computed from the core's RebuildStats; all-zero
///   // for single-shard layouts:
///   CommStats comm_stats(const RebuildStats&) const;
///
/// Stores only ever see updates the core has already checked with
/// `valid_update`, and `toggle` never sees an empty one. Everything else —
/// matching, counters, budget replay, and every decision sequence — lives
/// here, so the two engines cannot drift:
/// the determinism contract (bit-identical matchings, graph, rebuild
/// *positions*, and A_weak call counts versus the sequential `apply` loop at
/// any threads / shards / batch-size setting) is one implementation pinned by
/// one differential harness (tests/test_replay_core.cpp).
///
/// `apply_batch` validates the whole batch up front and then runs the
/// sequential step once per update, so a batch is the `apply` loop by
/// construction at every store, shard count and thread count.

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dynamic/static_weak.hpp"
#include "dynamic/weak_oracle.hpp"
#include "graph/dyn_graph.hpp"
#include "matching/matching.hpp"
#include "matching/matching_view.hpp"
#include "util/assert.hpp"

namespace bmf {

/// The one config behind every replay-core engine. Facade configs
/// (`DynamicMatcherConfig`, `ShardedMatcherConfig`) derive from this so the
/// knobs cannot drift apart or be forwarded by ad-hoc field copies.
struct DynamicCoreConfig {
  double eps = 0.25;
  WeakSimConfig sim;  ///< rebuild configuration (sim.core.eps is forced to eps/2)
  /// Updates between rebuilds; 0 = adaptive max(1, floor(eps*|M|/4)).
  std::int64_t rebuild_every = 0;
  std::uint64_t seed = 1;
  /// Validated (>= 0) but read by no dynamic-engine code: updates and
  /// rebuilds run on the calling thread. Kept only because perfbench/ sets
  /// it; it goes with the next change to perfbench/.
  int threads = 0;
};

/// Validates the shared knobs (and the shard count, for sharded engines;
/// pass shards = 1 otherwise). Throws std::invalid_argument; `who` prefixes
/// the message. shards > n is legal — trailing shards own empty ranges.
void validate_core_config(const DynamicCoreConfig& cfg, int shards, const char* who);

/// `cfg` with the rebuild simulation forced onto the shared eps/seed knobs,
/// so rebuild trajectories line up bit for bit across engines.
[[nodiscard]] DynamicCoreConfig resolve_core_config(DynamicCoreConfig cfg);

/// True iff `up` is legal for an engine over `n` vertices: an empty update,
/// or an update of an edge between two distinct vertices in [0, n). The one
/// predicate behind the core's `apply` / `apply_batch` checks and the
/// matching service's ingest check.
[[nodiscard]] inline bool valid_update(const EdgeUpdate& up, Vertex n) {
  return up.empty() ||
         (up.u >= 0 && up.u < n && up.v >= 0 && up.v < n && up.u != up.v);
}

/// Coordinator message ledger: bytes and rounds crossing the shard boundary,
/// split between the update path (routing each toggled update's directed
/// copies to their shard slices) and the rebuild path (snapshot
/// distribution, discovery-sweep candidate gathers, oracle query gathers).
/// Stores with a single shard report all zeros — the flat engine and a
/// sharded engine at shards = 1 both have no boundary to cross. The ledger
/// counts the messages the store actually models; serial coordinator reads
/// inside a rebuild (in-structure sweeps, local contractions) are
/// deliberately not charged — the exact-cost accounting caveat
/// (docs/replay_core.md). Counters are monotone over a run, deterministic for
/// a fixed stream x config x shards cell, and equal at every thread count and
/// every batch size: the update path charges per toggled update, whatever
/// batch it arrives in. They are *not* equal across shard counts (shards = 1
/// charges nothing).
struct CommStats {
  std::int64_t batch_bytes = 0;    ///< update ops routed to shard slices
  std::int64_t batch_rounds = 0;   ///< routing rounds (one per toggled update)
  std::int64_t rebuild_bytes = 0;  ///< snapshot + gathers during rebuilds
  std::int64_t rebuild_rounds = 0;
  [[nodiscard]] std::int64_t coord_bytes() const {
    return batch_bytes + rebuild_bytes;
  }
  [[nodiscard]] std::int64_t coord_rounds() const {
    return batch_rounds + rebuild_rounds;
  }
  friend bool operator==(const CommStats&, const CommStats&) = default;
};

/// Theorem 6.2 rebuild counters folded across every boost the core ran.
/// Part of the determinism contract:
/// bit-identical across engines, shards, threads, and batch sizes for a fixed
/// stream x config — unlike CommStats, which is per-cell only. The last three
/// are what a store prices its rebuild-side ledger from.
struct RebuildStats {
  std::int64_t rebuilds = 0;
  std::int64_t weak_calls = 0;  ///< == engine weak_calls(): only rebuilds query
  std::int64_t sampled_iterations = 0;
  std::int64_t certified = 0;  ///< boosts that ended with the B.4 certificate
  std::int64_t snapshot_edges = 0;  ///< edges of every rebuild's snapshot
  std::int64_t sweep_rounds = 0;    ///< exhaustion-sweep discovery iterations
  std::int64_t sweep_arcs = 0;      ///< candidate arcs those sweeps found
  friend bool operator==(const RebuildStats&, const RebuildStats&) = default;
};

/// Per-member concepts behind `AdjacencyStorePolicy`. Split so the
/// static_asserts inside `DynamicReplayCore` can name the exact member a
/// candidate store is missing (one diagnostic per hole — see
/// tests/compile_fail/, which compiles a store with each member removed and
/// greps for the matching message) instead of surfacing as a wall of
/// unrelated template errors.
namespace store_contract {

template <class S>
concept HasNumVertices = requires(const S& s) {
  { s.num_vertices() } -> std::convertible_to<Vertex>;
};

template <class S>
concept HasHasEdge = requires(const S& s, Vertex u, Vertex v) {
  { s.has_edge(u, v) } -> std::convertible_to<bool>;
};

template <class S>
concept HasNeighbors = requires(const S& s, Vertex v) {
  { s.neighbors(v) } -> std::convertible_to<std::span<const Vertex>>;
};

template <class S>
concept HasSnapshot = requires(const S& s) {
  { s.snapshot() } -> std::same_as<Graph>;
};

template <class S>
concept HasOracle = requires(S& s) {
  { s.oracle() } -> std::convertible_to<WeakOracle&>;
};

template <class S>
concept HasToggle = requires(S& s, const EdgeUpdate& up) {
  { s.toggle(up) } -> std::convertible_to<bool>;
};

template <class S>
concept HasCommStats = requires(const S& s, const RebuildStats& r) {
  { s.comm_stats(r) } -> std::same_as<CommStats>;
};

}  // namespace store_contract

/// The AdjacencyStore policy contract (file comment above) as a C++20
/// concept: exactly the surface `DynamicReplayCore` drives. The concept
/// checks shape; the semantic obligations (ascending `neighbors`, snapshot
/// order == DynGraph order, `toggle`'s changed-presence return) stay prose —
/// they are pinned by the differential harness, not the type system.
template <class S>
concept AdjacencyStorePolicy =
    store_contract::HasNumVertices<S> && store_contract::HasHasEdge<S> &&
    store_contract::HasNeighbors<S> && store_contract::HasSnapshot<S> &&
    store_contract::HasOracle<S> && store_contract::HasToggle<S> &&
    store_contract::HasCommStats<S>;

/// The flat single-node AdjacencyStore policy: a `DynGraph` plus a borrowed
/// `WeakOracle`. `DynamicMatcher` is a facade over
/// `DynamicReplayCore<FlatAdjacencyStore>`; `Problem1Instance` applies its
/// chunks through `toggle`.
class FlatAdjacencyStore {
 public:
  FlatAdjacencyStore(Vertex n, WeakOracle& oracle) : g_(n), oracle_(oracle) {}

  [[nodiscard]] Vertex num_vertices() const { return g_.num_vertices(); }
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const { return g_.has_edge(u, v); }
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const {
    return g_.neighbors(v);
  }
  [[nodiscard]] Graph snapshot() const { return g_.snapshot(); }
  [[nodiscard]] WeakOracle& oracle() { return oracle_; }

  bool toggle(const EdgeUpdate& up) {
    if (up.insert) {
      if (!g_.insert(up.u, up.v)) return false;
      oracle_.on_insert(up.u, up.v);
    } else {
      if (!g_.erase(up.u, up.v)) return false;
      oracle_.on_erase(up.u, up.v);
    }
    return true;
  }

  /// One node: nothing crosses a boundary.
  [[nodiscard]] CommStats comm_stats(const RebuildStats& /*rebuilt*/) const {
    return {};
  }

  [[nodiscard]] const DynGraph& graph() const { return g_; }

 private:
  DynGraph g_;
  WeakOracle& oracle_;
};

static_assert(AdjacencyStorePolicy<FlatAdjacencyStore>,
              "FlatAdjacencyStore must model AdjacencyStorePolicy");

/// The shared decision machinery. One instance per engine facade; `Store` is
/// the AdjacencyStore policy (see the file comment for the contract).
///
/// The static_assert cascade fires at instantiation, one named diagnostic
/// per missing contract member, before the member bodies get a chance to
/// spray unrelated errors; the final assert is the whole concept, so a store
/// failing in a way no per-member assert names is still rejected here.
template <class Store>
class DynamicReplayCore {
  static_assert(store_contract::HasNumVertices<Store>,
                "AdjacencyStore contract: missing 'Vertex num_vertices() const'");
  static_assert(store_contract::HasHasEdge<Store>,
                "AdjacencyStore contract: missing "
                "'bool has_edge(Vertex, Vertex) const'");
  static_assert(store_contract::HasNeighbors<Store>,
                "AdjacencyStore contract: missing "
                "'std::span<const Vertex> neighbors(Vertex) const'");
  static_assert(store_contract::HasSnapshot<Store>,
                "AdjacencyStore contract: missing 'Graph snapshot() const'");
  static_assert(store_contract::HasOracle<Store>,
                "AdjacencyStore contract: missing 'WeakOracle& oracle()'");
  static_assert(store_contract::HasToggle<Store>,
                "AdjacencyStore contract: missing "
                "'bool toggle(const EdgeUpdate&)'");
  static_assert(store_contract::HasCommStats<Store>,
                "AdjacencyStore contract: missing "
                "'CommStats comm_stats(const RebuildStats&) const'");
  static_assert(AdjacencyStorePolicy<Store>,
                "Store does not model bmf::AdjacencyStorePolicy "
                "(see src/dynamic/replay_core.hpp)");

 public:
  /// `cfg` must already be resolved (resolve_core_config) and validated.
  DynamicReplayCore(Store& store, const DynamicCoreConfig& cfg)
      : store_(store), cfg_(cfg), m_(store.num_vertices()) {}

  /// Throws std::invalid_argument on an invalid update before any counter
  /// or state moves.
  void apply(const EdgeUpdate& update) {
    require_valid(update);
    apply_valid(update);
  }

  /// The whole batch is validated before the first mutation; then each
  /// update takes the sequential step, in order.
  void apply_batch(std::span<const EdgeUpdate> batch) {
    for (const EdgeUpdate& up : batch) require_valid(up);
    for (const EdgeUpdate& up : batch) apply_valid(up);
  }

  [[nodiscard]] const Matching& matching() const { return m_; }

  /// Exports the current matching as an immutable epoch snapshot (compact
  /// mate array + size + the given epoch id + the update count) — the
  /// publication hook behind `MatchingService`. Pure read: exporting never
  /// perturbs the replay state, so engines with and without snapshot export
  /// stay bit-identical (pinned by the differential harness, which exports
  /// after every run and compares mate for mate).
  [[nodiscard]] MatchingSnapshot export_snapshot(std::int64_t epoch) const {
    return MatchingSnapshot::of(m_, epoch, updates_);
  }

  [[nodiscard]] std::int64_t updates() const { return updates_; }
  [[nodiscard]] std::int64_t rebuilds() const { return rebuilds_; }
  /// Update position (the value of `updates()`) at which each rebuild fired —
  /// the golden-trace suites pin these byte for byte.
  [[nodiscard]] const std::vector<std::int64_t>& rebuild_positions() const {
    return rebuild_positions_;
  }
  /// Folded Theorem 6.2 counters across every rebuild (bit-identical across
  /// the whole engine grid; rebuild_stats().weak_calls equals the oracle's
  /// total call count because only rebuilds query it).
  [[nodiscard]] const RebuildStats& rebuild_stats() const {
    return rebuild_stats_;
  }

 private:
  void require_valid(const EdgeUpdate& up) const {
    BMF_REQUIRE(valid_update(up, store_.num_vertices()),
                "DynamicReplayCore: invalid edge update");
  }

  /// The sequential reference step for one already-validated update.
  void apply_valid(const EdgeUpdate& update) {
    ++updates_;
    ++since_rebuild_;
    if (!update.empty()) {
      if (store_.toggle(update))
        on_structural_change(update.u, update.v, update.insert);
    }
    maybe_rebuild();
  }

  void try_match(Vertex v) {
    if (!m_.is_free(v)) return;
    for (Vertex w : store_.neighbors(v)) {
      if (m_.is_free(w)) {
        m_.add(v, w);
        return;
      }
    }
  }

  void on_structural_change(Vertex u, Vertex v, bool inserted) {
    if (inserted) {
      if (m_.is_free(u) && m_.is_free(v)) m_.add(u, v);
    } else if (m_.has(u, v)) {
      m_.remove_at(u);
      try_match(u);
      try_match(v);
    }
  }

  /// Updates allowed between rebuilds at matching size `sz`.
  [[nodiscard]] std::int64_t rebuild_budget(std::int64_t sz) const {
    if (cfg_.rebuild_every > 0) return cfg_.rebuild_every;
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::floor(cfg_.eps * static_cast<double>(sz) / 4.0)));
  }

  void maybe_rebuild() {
    if (since_rebuild_ < rebuild_budget(m_.size())) return;
    since_rebuild_ = 0;
    ++rebuilds_;
    rebuild_positions_.push_back(updates_);
    rebuild();
  }

  void rebuild() {
    const Graph snapshot = store_.snapshot();
    WeakBoostResult boosted =
        static_weak_boost(snapshot, m_, store_.oracle(), cfg_.sim);
    ++rebuild_stats_.rebuilds;
    rebuild_stats_.weak_calls += boosted.weak_calls;
    rebuild_stats_.sampled_iterations += boosted.sampled_iterations;
    if (boosted.outcome.certified) ++rebuild_stats_.certified;
    rebuild_stats_.snapshot_edges += snapshot.num_edges();
    rebuild_stats_.sweep_rounds += boosted.sweep_rounds;
    rebuild_stats_.sweep_arcs += boosted.sweep_arcs;
    m_ = std::move(boosted.matching);
  }

  Store& store_;
  DynamicCoreConfig cfg_;
  Matching m_;
  std::int64_t updates_ = 0;
  std::int64_t since_rebuild_ = 0;
  std::int64_t rebuilds_ = 0;
  std::vector<std::int64_t> rebuild_positions_;
  RebuildStats rebuild_stats_;
};

}  // namespace bmf
