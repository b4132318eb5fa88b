#include "dynamic/weak_oracle.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace bmf {

namespace {

/// Definition 6.1's answer for a greedy matching of `size` edges over n
/// vertices: bottom iff it falls below lambda * delta * n.
bool below_threshold(std::size_t size, double lambda, double delta, Vertex n) {
  return static_cast<double>(size) < lambda * delta * static_cast<double>(n);
}

/// u's first neighbor in ascending order that `avail` marks, or kNoVertex:
/// the adjacency form of `BitMatrix::first_common_in_row`.
Vertex first_marked_neighbor(const DynGraph& g, Vertex u, const BitVec& avail) {
  for (const Vertex v : g.neighbors(u))
    if (avail.get(v)) return v;
  return kNoVertex;
}

}  // namespace

void WeakOracle::on_batch(std::span<const EdgeUpdate> updates,
                          std::span<const std::uint8_t> structural,
                          int /*threads*/) {
  BMF_REQUIRE(structural.size() == updates.size(),
              "WeakOracle::on_batch: flag span size mismatch");
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (!structural[i]) continue;
    if (updates[i].insert)
      on_insert(updates[i].u, updates[i].v);
    else
      on_erase(updates[i].u, updates[i].v);
  }
}

MatrixWeakOracle::MatrixWeakOracle(Vertex n) : n_(n), adj_(n, n) {
  BMF_REQUIRE(n >= 0, "MatrixWeakOracle: negative vertex count");
}

MatrixWeakOracle MatrixWeakOracle::from_graph(const Graph& g) {
  MatrixWeakOracle oracle(g.num_vertices());
  for (const Edge& e : g.edges()) oracle.on_insert(e.u, e.v);
  return oracle;
}

WeakQueryResult MatrixWeakOracle::query_impl(std::span<const Vertex> s,
                                             double delta) {
  BitVec avail(n_);
  for (Vertex v : s) avail.set(v);
  WeakQueryResult out;
  for (Vertex u : s) {
    if (!avail.get(u)) continue;
    // The adjacency diagonal is never set, so the probe cannot return u.
    // Charge exactly the words the early-exiting probe read, not the full
    // row — the row scan stops at the first set word.
    std::int64_t scanned = 0;
    const std::int64_t v = adj_.first_common_in_row(u, avail, &scanned);
    words_touched_ += scanned;
    if (v >= 0) {
      out.matching.push_back({u, static_cast<Vertex>(v)});
      avail.set(u, false);
      avail.set(v, false);
    }
  }
  out.bottom = below_threshold(out.matching.size(), lambda(), delta, n_);
  return out;
}

WeakQueryResult MatrixWeakOracle::query_cover_impl(
    std::span<const Vertex> s_plus, std::span<const Vertex> s_minus,
    double delta) {
  BitVec avail(n_);
  for (Vertex v : s_minus) avail.set(v);
  WeakQueryResult out;
  for (Vertex u : s_plus) {
    // u+ may match v- even when u also appears in s_minus (distinct copies);
    // the B-edge (u+, u-) never exists because G has no self-loops, so the
    // masked row probe cannot return u itself. Charge the words actually
    // scanned (the probe early-exits at the first set word).
    std::int64_t scanned = 0;
    const std::int64_t v = adj_.first_common_in_row(u, avail, &scanned);
    words_touched_ += scanned;
    if (v >= 0) {
      out.matching.push_back({u, static_cast<Vertex>(v)});
      avail.set(v, false);
    }
  }
  out.bottom = below_threshold(out.matching.size(), lambda(), delta, n_);
  return out;
}

// ------------------------------------------------------- AdjacencyWeakOracle

WeakQueryResult AdjacencyWeakOracle::query_impl(std::span<const Vertex> s,
                                                double delta) {
  BitVec avail(g_.num_vertices());
  for (Vertex v : s) avail.set(v);
  WeakQueryResult out;
  for (Vertex u : s) {
    if (!avail.get(u)) continue;
    // DynGraph has no self-loops, so the walk cannot return u.
    const Vertex v = first_marked_neighbor(g_, u, avail);
    if (v != kNoVertex) {
      out.matching.push_back({u, v});
      avail.set(u, false);
      avail.set(v, false);
    }
  }
  out.bottom =
      below_threshold(out.matching.size(), lambda(), delta, g_.num_vertices());
  return out;
}

WeakQueryResult AdjacencyWeakOracle::query_cover_impl(
    std::span<const Vertex> s_plus, std::span<const Vertex> s_minus,
    double delta) {
  BitVec avail(g_.num_vertices());
  for (Vertex v : s_minus) avail.set(v);
  WeakQueryResult out;
  for (Vertex u : s_plus) {
    // u+ and u- are distinct copies, so only v- leaves the mask.
    const Vertex v = first_marked_neighbor(g_, u, avail);
    if (v != kNoVertex) {
      out.matching.push_back({u, v});
      avail.set(v, false);
    }
  }
  out.bottom =
      below_threshold(out.matching.size(), lambda(), delta, g_.num_vertices());
  return out;
}

}  // namespace bmf
