#include "dynamic/sharded_matcher.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace bmf {

// ---------------------------------------------------------- VertexPartition

VertexPartition::VertexPartition(Vertex n, int shards)
    : n_(n),
      k_(shards),
      block_(n == 0 ? 0 : (n + static_cast<Vertex>(shards) - 1) /
                              static_cast<Vertex>(shards)) {
  BMF_REQUIRE(n >= 0, "VertexPartition: negative vertex count");
  BMF_REQUIRE(shards >= 1, "VertexPartition: shards must be >= 1");
}

// ------------------------------------------------------- ShardedMatrixOracle

ShardedMatrixOracle::ShardedMatrixOracle(Vertex n, int shards)
    : part_(n, shards) {
  slices_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s)
    slices_.emplace_back(part_.size(s), n);
}

void ShardedMatrixOracle::on_insert(Vertex u, Vertex v) {
  const int su = part_.owner(u), sv = part_.owner(v);
  slices_[static_cast<std::size_t>(su)].set(u - part_.begin(su), v);
  slices_[static_cast<std::size_t>(sv)].set(v - part_.begin(sv), u);
}

void ShardedMatrixOracle::on_erase(Vertex u, Vertex v) {
  const int su = part_.owner(u), sv = part_.owner(v);
  slices_[static_cast<std::size_t>(su)].set(u - part_.begin(su), v, false);
  slices_[static_cast<std::size_t>(sv)].set(v - part_.begin(sv), u, false);
}

bool ShardedMatrixOracle::bit(Vertex u, Vertex v) const {
  const int su = part_.owner(u);
  return slices_[static_cast<std::size_t>(su)].get(u - part_.begin(su), v);
}

WeakQueryResult ShardedMatrixOracle::greedy(std::span<const Vertex> rows,
                                            BitVec& avail, bool consume_plus,
                                            double delta) {
  // Each row is probed by its owning shard and the results travel to the
  // greedy commit at the coordinator: one slot per row, one gather round per
  // query. Nothing crosses at a single shard.
  if (part_.shards() > 1) {
    query_gather_bytes_ += static_cast<std::int64_t>(rows.size()) *
                           static_cast<std::int64_t>(sizeof(std::int64_t));
    ++query_gather_rounds_;
  }
  WeakQueryResult out;
  for (const Vertex u : rows) {
    if (consume_plus && !avail.get(u)) continue;
    const int s = part_.owner(u);
    std::int64_t scanned = 0;
    const std::int64_t c = slices_[static_cast<std::size_t>(s)].first_common_in_row(
        u - part_.begin(s), avail, &scanned);
    words_touched_ += scanned;
    if (c < 0) continue;
    out.matching.push_back({u, static_cast<Vertex>(c)});
    if (consume_plus) avail.set(u, false);
    avail.set(c, false);
  }
  const double threshold =
      lambda() * delta * static_cast<double>(part_.num_vertices());
  out.bottom = static_cast<double>(out.matching.size()) < threshold;
  return out;
}

WeakQueryResult ShardedMatrixOracle::query_impl(std::span<const Vertex> s,
                                                double delta) {
  BitVec avail(part_.num_vertices());
  for (Vertex v : s) avail.set(v);
  // The adjacency diagonal is never set, so a probe cannot return its own
  // row even when that row is in the mask.
  return greedy(s, avail, /*consume_plus=*/true, delta);
}

WeakQueryResult ShardedMatrixOracle::query_cover_impl(
    std::span<const Vertex> s_plus, std::span<const Vertex> s_minus,
    double delta) {
  BitVec avail(part_.num_vertices());
  for (Vertex v : s_minus) avail.set(v);
  return greedy(s_plus, avail, /*consume_plus=*/false, delta);
}

// ----------------------------------------------------- ShardedAdjacencyStore

ShardedAdjacencyStore::ShardedAdjacencyStore(const VertexPartition& part,
                                             ShardedMatrixOracle& oracle)
    : part_(part), slices_(static_cast<std::size_t>(part.shards())),
      oracle_(oracle) {
  for (int s = 0; s < part_.shards(); ++s)
    slices_[static_cast<std::size_t>(s)].resize(
        static_cast<std::size_t>(part_.size(s)));
}

std::vector<Vertex>& ShardedAdjacencyStore::row(Vertex v) {
  const int s = part_.owner(v);
  return slices_[static_cast<std::size_t>(s)]
                [static_cast<std::size_t>(v - part_.begin(s))];
}

const std::vector<Vertex>& ShardedAdjacencyStore::row(Vertex v) const {
  const int s = part_.owner(v);
  return slices_[static_cast<std::size_t>(s)]
                [static_cast<std::size_t>(v - part_.begin(s))];
}

void ShardedAdjacencyStore::link(Vertex u, Vertex v) {
  auto& a = row(u);
  a.insert(std::lower_bound(a.begin(), a.end(), v), v);
}

void ShardedAdjacencyStore::unlink(Vertex u, Vertex v) {
  auto& a = row(u);
  const auto it = std::lower_bound(a.begin(), a.end(), v);
  BMF_ASSERT(it != a.end() && *it == v);
  a.erase(it);
}

bool ShardedAdjacencyStore::has_edge(Vertex u, Vertex v) const {
  if (u < 0 || v < 0 || u >= part_.num_vertices() || v >= part_.num_vertices() ||
      u == v)
    return false;
  const auto& a = row(u);
  return std::binary_search(a.begin(), a.end(), v);
}

Graph ShardedAdjacencyStore::snapshot() const {
  GraphBuilder b(part_.num_vertices());
  for (Vertex u = 0; u < part_.num_vertices(); ++u)
    for (Vertex v : row(u))
      if (u < v) b.add_edge(u, v);
  return b.build();
}

bool ShardedAdjacencyStore::toggle(const EdgeUpdate& up) {
  if (up.insert) {
    if (has_edge(up.u, up.v)) return false;
    link(up.u, up.v);
    link(up.v, up.u);
    ++m_edges_;
    oracle_.on_insert(up.u, up.v);
  } else {
    if (!has_edge(up.u, up.v)) return false;
    unlink(up.u, up.v);
    unlink(up.v, up.u);
    --m_edges_;
    oracle_.on_erase(up.u, up.v);
  }
  // The update's two directed copies travel to their row owners (no-ops
  // that toggle nothing send nothing).
  charge_route();
  return true;
}

CommStats ShardedAdjacencyStore::comm_stats(const RebuildStats& rebuilt) const {
  if (part_.shards() <= 1) return {};
  CommStats out;
  out.batch_bytes = batch_bytes_;
  out.batch_rounds = batch_rounds_;
  out.rebuild_bytes =
      2 * static_cast<std::int64_t>(sizeof(Vertex)) * rebuilt.snapshot_edges +
      kSweepArcBytes * rebuilt.sweep_arcs + oracle_.query_gather_bytes();
  out.rebuild_rounds = rebuilt.rebuilds + rebuilt.sweep_rounds +
                       oracle_.query_gather_rounds();
  return out;
}

void ShardedAdjacencyStore::charge_route() {
  if (part_.shards() <= 1) return;
  batch_bytes_ += 2 * static_cast<std::int64_t>(sizeof(ShardOp));
  ++batch_rounds_;
}

// ----------------------------------------------------- ShardedDynamicMatcher

namespace {

const ShardedMatcherConfig& validated(const ShardedMatcherConfig& cfg) {
  validate_core_config(cfg, cfg.shards, "ShardedDynamicMatcher");
  return cfg;
}

}  // namespace

ShardedDynamicMatcher::ShardedDynamicMatcher(Vertex n,
                                             const ShardedMatcherConfig& cfg)
    : part_(n, validated(cfg).shards),
      oracle_(n, cfg.shards),
      store_(part_, oracle_),
      core_(store_, resolve_core_config(cfg)) {}

}  // namespace bmf
