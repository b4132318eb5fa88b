#pragma once

/// Definitions shared by the dynamic engine (`DynamicMatcher`,
/// dynamic_matcher.hpp), the matching service and the tests: the one engine
/// config and its validation, the update-legality predicate, the folded
/// Theorem 6.2 rebuild counters, and the coordinator message ledger that the
/// engine's partition cost model fills (docs/replay_core.md).

#include <cstdint>

#include "dynamic/static_weak.hpp"
#include "graph/dyn_graph.hpp"

namespace bmf {

/// The one dynamic-engine config. `ServiceConfig` derives from it, so one
/// struct configures the whole stack and one validation path rejects every
/// bad knob the same way.
struct DynamicMatcherConfig {
  double eps = 0.25;
  WeakSimConfig sim;  ///< rebuild configuration (sim.core.eps is forced to eps/2)
  /// Updates between rebuilds; 0 = adaptive max(1, floor(eps*|M|/4)).
  std::int64_t rebuild_every = 0;
  std::uint64_t seed = 1;
  /// Validated (>= 0) but read by no dynamic-engine code: updates and
  /// rebuilds run on the calling thread. Kept only because perfbench/ sets
  /// it; it goes with the next change to perfbench/.
  int threads = 0;
  /// Vertex shards that `comm_stats()` prices traffic for (>= 1; > n is
  /// legal). Read by nothing else: matchings, rebuilds and every other
  /// counter are the same at any setting.
  int shards = 1;
};

/// Validates every knob. Throws std::invalid_argument; `who` prefixes the
/// message.
void validate_core_config(const DynamicMatcherConfig& cfg, const char* who);

/// `cfg` with the rebuild simulation forced onto the shared eps/seed knobs.
[[nodiscard]] DynamicMatcherConfig resolve_core_config(DynamicMatcherConfig cfg);

/// True iff `up` is legal for an engine over `n` vertices: an empty update,
/// or an update of an edge between two distinct vertices in [0, n). The one
/// predicate behind the engine's `apply` / `apply_batch` checks and the
/// matching service's ingest check.
[[nodiscard]] inline bool valid_update(const EdgeUpdate& up, Vertex n) {
  return up.empty() ||
         (up.u >= 0 && up.u < n && up.v >= 0 && up.v < n && up.u != up.v);
}

/// Coordinator message ledger: bytes and rounds that would cross the shard
/// boundary if the engine's vertices were split over `shards` owners, split
/// between the update path (routing each toggled update's directed copies)
/// and the rebuild path (snapshot distribution, sweep candidate gathers,
/// oracle query gathers). `DynamicMatcher::comm_stats()` prices it in closed
/// form from counters the engine keeps anyway; all zero at `shards <= 1`.
/// Monotone over a run and equal at every batch size; not equal across
/// shard counts (one shard charges nothing).
struct CommStats {
  std::int64_t batch_bytes = 0;    ///< update copies routed to their owners
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

/// Theorem 6.2 rebuild counters folded across every boost the engine ran.
/// Part of the determinism contract: bit-identical across shard counts,
/// thread counts and batch sizes for a fixed stream x config. The last three
/// feed the rebuild side of `CommStats`.
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

}  // namespace bmf
