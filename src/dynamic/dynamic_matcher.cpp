#include "dynamic/dynamic_matcher.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dynamic/static_weak.hpp"
#include "util/assert.hpp"

namespace bmf {

namespace {

DynamicMatcherConfig validated(const DynamicMatcherConfig& cfg) {
  validate_core_config(cfg, "DynamicMatcher");
  return resolve_core_config(cfg);
}

/// The one "update the graph, and tell the oracle if presence changed" step
/// behind DynamicMatcher and Problem1Instance. `up` is valid and non-empty;
/// returns true iff it changed edge presence.
bool toggle_edge(DynGraph& g, WeakOracle& oracle, const EdgeUpdate& up) {
  if (up.insert) {
    if (!g.insert(up.u, up.v)) return false;
    oracle.on_insert(up.u, up.v);
  } else {
    if (!g.erase(up.u, up.v)) return false;
    oracle.on_erase(up.u, up.v);
  }
  return true;
}

/// Problem 1's chunk length alpha*n, checked before the cast: a non-finite
/// alpha, or an alpha*n past int64_t, has no chunk size (and casting it
/// would be undefined behaviour).
std::int64_t chunk_size_for(Vertex n, double alpha) {
  BMF_REQUIRE(std::isfinite(alpha) && alpha > 0,
              "Problem1Instance: alpha must be finite and > 0");
  const double chunk = alpha * static_cast<double>(n);
  BMF_REQUIRE(chunk < 0x1p63, "Problem1Instance: alpha * n overflows the chunk size");
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(chunk));
}

}  // namespace

// ------------------------------------------------------------ DynamicMatcher

DynamicMatcher::DynamicMatcher(Vertex n, const DynamicMatcherConfig& cfg)
    : cfg_(validated(cfg)),
      g_(n),
      owned_oracle_(std::make_unique<AdjacencyWeakOracle>(g_)),
      oracle_(*owned_oracle_),
      m_(n) {}

DynamicMatcher::DynamicMatcher(Vertex n, WeakOracle& oracle,
                               const DynamicMatcherConfig& cfg)
    : cfg_(validated(cfg)), g_(n), oracle_(oracle), m_(n) {}

void DynamicMatcher::apply(const EdgeUpdate& update) {
  require_valid(update);
  apply_valid(update);
}

void DynamicMatcher::apply_batch(std::span<const EdgeUpdate> batch) {
  for (const EdgeUpdate& up : batch) require_valid(up);
  for (const EdgeUpdate& up : batch) apply_valid(up);
}

CommStats DynamicMatcher::comm_stats() const {
  // The partition cost model (docs/replay_core.md): what a vertex partition
  // into cfg_.shards owners would send, priced from counters the engine and
  // its oracle keep anyway. One owner has no boundary to cross.
  if (cfg_.shards <= 1) return {};
  // A toggle routes two 12-byte {vertex, other, insert} copies, one to each
  // endpoint's owner.
  constexpr std::int64_t kToggleBytes = 24;
  // A rebuild sends both int32 copies of every snapshot edge to their owners.
  constexpr std::int64_t kSnapshotEdgeBytes = 8;
  // A sweep arc is gathered as four int32 fields: scan position, both
  // endpoints and the peer structure.
  constexpr std::int64_t kSweepArcBytes = 16;
  // Each row an A_weak query probes returns one 8-byte slot to the greedy
  // commit.
  constexpr std::int64_t kQueriedRowBytes = 8;
  const RebuildStats& r = rebuild_stats_;
  CommStats out;
  out.batch_bytes = kToggleBytes * toggled_updates_;
  out.batch_rounds = toggled_updates_;
  out.rebuild_bytes = kSnapshotEdgeBytes * r.snapshot_edges +
                      kSweepArcBytes * r.sweep_arcs +
                      kQueriedRowBytes * oracle_.rows_queried();
  // One round per snapshot distribution, per sweep gather and per query.
  out.rebuild_rounds = r.rebuilds + r.sweep_rounds + r.weak_calls;
  return out;
}

void DynamicMatcher::require_valid(const EdgeUpdate& up) const {
  BMF_REQUIRE(valid_update(up, g_.num_vertices()),
              "DynamicMatcher: invalid edge update");
}

void DynamicMatcher::apply_valid(const EdgeUpdate& update) {
  ++updates_;
  ++since_rebuild_;
  if (!update.empty() && toggle_edge(g_, oracle_, update)) {
    ++toggled_updates_;
    on_structural_change(update.u, update.v, update.insert);
  }
  maybe_rebuild();
}

void DynamicMatcher::try_match(Vertex v) {
  if (!m_.is_free(v)) return;
  for (Vertex w : g_.neighbors(v)) {
    if (m_.is_free(w)) {
      m_.add(v, w);
      return;
    }
  }
}

void DynamicMatcher::on_structural_change(Vertex u, Vertex v, bool inserted) {
  if (inserted) {
    if (m_.is_free(u) && m_.is_free(v)) m_.add(u, v);
  } else if (m_.has(u, v)) {
    m_.remove_at(u);
    try_match(u);
    try_match(v);
  }
}

std::int64_t DynamicMatcher::rebuild_budget(std::int64_t sz) const {
  if (cfg_.rebuild_every > 0) return cfg_.rebuild_every;
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::floor(cfg_.eps * static_cast<double>(sz) / 4.0)));
}

void DynamicMatcher::maybe_rebuild() {
  if (since_rebuild_ < rebuild_budget(m_.size())) return;
  since_rebuild_ = 0;
  ++rebuilds_;
  rebuild_positions_.push_back(updates_);
  rebuild();
}

void DynamicMatcher::rebuild() {
  const Graph snapshot = g_.snapshot();
  WeakBoostResult boosted = static_weak_boost(snapshot, m_, oracle_, cfg_.sim);
  ++rebuild_stats_.rebuilds;
  rebuild_stats_.weak_calls += boosted.weak_calls;
  rebuild_stats_.sampled_iterations += boosted.sampled_iterations;
  if (boosted.outcome.certified) ++rebuild_stats_.certified;
  rebuild_stats_.snapshot_edges += snapshot.num_edges();
  rebuild_stats_.sweep_rounds += boosted.sweep_rounds;
  rebuild_stats_.sweep_arcs += boosted.sweep_arcs;
  m_ = std::move(boosted.matching);
}

// ---------------------------------------------------------- Problem1Instance

Problem1Instance::Problem1Instance(Vertex n, WeakOracle& oracle, std::int64_t q,
                                   double lambda, double delta, double alpha)
    : chunk_size_(chunk_size_for(n, alpha)),
      g_(n),
      oracle_(oracle),
      q_(q),
      delta_(delta) {
  BMF_REQUIRE(q >= 1, "Problem1Instance: q must be >= 1");
  BMF_REQUIRE(lambda > 0 && lambda <= 1 && delta > 0 && delta < 1,
              "Problem1Instance: parameters out of range");
  BMF_REQUIRE(oracle.lambda() >= lambda,
              "Problem1Instance: oracle lambda too weak for this instance");
}

void Problem1Instance::apply_chunk(std::span<const EdgeUpdate> chunk) {
  BMF_REQUIRE(static_cast<std::int64_t>(chunk.size()) == chunk_size_,
              "Problem1Instance: chunk must contain exactly alpha*n updates");
  for (const EdgeUpdate& up : chunk)
    BMF_REQUIRE(valid_update(up, g_.num_vertices()),
                "Problem1Instance: invalid edge update");
  for (const EdgeUpdate& up : chunk)
    if (!up.empty()) toggle_edge(g_, oracle_, up);
  queries_left_ = q_;
}

WeakQueryResult Problem1Instance::query(std::span<const Vertex> s) {
  BMF_REQUIRE(queries_left_ > 0, "Problem1Instance: query budget exhausted");
  for (const Vertex v : s)
    BMF_REQUIRE(v >= 0 && v < g_.num_vertices(),
                "Problem1Instance: query vertex out of range");
  --queries_left_;
  return oracle_.query(s, delta_);
}

}  // namespace bmf
