#pragma once

/// Fully dynamic undirected simple graph over flat sorted adjacency.
///
/// This is the substrate under the dynamic matching algorithms (Section 7 of
/// the paper): the graph "starts empty and never has more than m edges".
/// Each vertex keeps its neighbors in a sorted contiguous vector, which
///
///  * makes the hot neighbor-scan paths cache-friendly (no per-node heap
///    chasing as with `unordered_set` buckets), and
///  * pins iteration order to ascending vertex id on every platform and
///    standard library, so `snapshot()` and everything downstream of a
///    neighbor scan (e.g. the dynamic matcher's rematch-by-first-free-neighbor
///    repair) is deterministic and reproducible across toolchains.
///
/// Single-edge insert/erase costs O(log deg) to locate plus O(deg) to shift.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace bmf {

/// One Problem 1 update. Lives with the dynamic substrate so that the graph,
/// the oracles and the matchers share a single update vocabulary.
struct EdgeUpdate {
  Vertex u = kNoVertex;
  Vertex v = kNoVertex;
  bool insert = true;
  /// Problem 1 allows "empty updates" that change nothing but count toward
  /// chunk accounting.
  [[nodiscard]] bool empty() const { return u == kNoVertex; }

  static EdgeUpdate ins(Vertex u, Vertex v) { return {u, v, true}; }
  static EdgeUpdate del(Vertex u, Vertex v) { return {u, v, false}; }
  static EdgeUpdate none() { return {}; }
};

class DynGraph {
 public:
  explicit DynGraph(Vertex num_vertices);

  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] std::int64_t num_edges() const { return m_; }

  /// Inserts {u, v}; returns false if it already existed (no-op).
  bool insert(Vertex u, Vertex v);

  /// Deletes {u, v}; returns false if it was absent (no-op).
  bool erase(Vertex u, Vertex v);

  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const;

  [[nodiscard]] std::int64_t degree(Vertex v) const {
    return static_cast<std::int64_t>(adj_[static_cast<std::size_t>(v)].size());
  }

  /// Neighbors of v in ascending vertex order (platform-deterministic).
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const {
    return adj_[static_cast<std::size_t>(v)];
  }

  /// Snapshot into a static CSR graph (used by rebuild steps and tests).
  /// Edges come out sorted lexicographically with u < v.
  [[nodiscard]] Graph snapshot() const;

 private:
  void link(Vertex u, Vertex v);    // one-directional sorted insert
  void unlink(Vertex u, Vertex v);  // one-directional sorted erase

  Vertex n_;
  std::int64_t m_ = 0;
  std::vector<std::vector<Vertex>> adj_;  // each sorted ascending
};

}  // namespace bmf
