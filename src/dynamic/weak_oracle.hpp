#pragma once

/// The weak induced-subgraph matching oracle `A_weak` (Definition 6.1).
///
/// Given S subseteq V and delta, the oracle returns either bottom or a
/// matching in G[S] of size >= lambda * delta * n; if mu(G[S]) >= delta * n
/// it must not return bottom. The dynamic framework (Section 6) additionally
/// queries the bipartite double cover B (Definition 6.3) through the same
/// adjacency information: query_cover(S+, S-) finds a matching in
/// B[S+ u S-], whose edges map 1:1 to type-3 candidate arcs of G.
///
/// Implementations always *report* the matching they found plus a `bottom`
/// flag saying whether Definition 6.1 would have answered bottom; callers in
/// "strict" mode may use sub-threshold matchings (a strictly stronger oracle,
/// used to run simulations to exhaustion), while faithful mode discards them.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/bit_matrix.hpp"
#include "graph/dyn_graph.hpp"
#include "graph/graph.hpp"

namespace bmf {

struct WeakQueryResult {
  /// For query(): edges of G[S]. For query_cover(): pairs (u, v) meaning the
  /// B-edge (u+, v-).
  std::vector<Edge> matching;
  /// True if Definition 6.1 would answer bottom (matching below lambda*delta*n).
  bool bottom = false;
};

class WeakOracle {
 public:
  virtual ~WeakOracle() = default;

  /// Definition 6.1 on G[S].
  WeakQueryResult query(std::span<const Vertex> s, double delta) {
    ++calls_;
    rows_queried_ += static_cast<std::int64_t>(s.size());
    return query_impl(s, delta);
  }

  /// Definition 6.1 on B[S+ u S-] (Definition 6.3).
  WeakQueryResult query_cover(std::span<const Vertex> s_plus,
                              std::span<const Vertex> s_minus, double delta) {
    ++calls_;
    rows_queried_ += static_cast<std::int64_t>(s_plus.size());
    return query_cover_impl(s_plus, s_minus, delta);
  }

  [[nodiscard]] virtual double lambda() const = 0;

  /// Dynamic maintenance hooks (Problem 1 updates).
  virtual void on_insert(Vertex u, Vertex v) = 0;
  virtual void on_erase(Vertex u, Vertex v) = 0;

  /// Applies the structural subset of `updates` (structural[i] != 0) by
  /// forwarding to on_insert / on_erase one by one in batch order; `threads`
  /// is ignored. Nothing in the library calls it: every engine maintains the
  /// oracle one update at a time. Kept only because
  /// perfbench/src/decorators.hpp overrides it; it goes with the next change
  /// to perfbench/.
  virtual void on_batch(std::span<const EdgeUpdate> updates,
                        std::span<const std::uint8_t> structural, int threads);

  [[nodiscard]] std::int64_t calls() const { return calls_; }
  /// Rows the queries asked about: |S| per `query`, |S+| per `query_cover`
  /// (the probed side). Feeds the rebuild side of `CommStats`.
  [[nodiscard]] std::int64_t rows_queried() const { return rows_queried_; }

 protected:
  virtual WeakQueryResult query_impl(std::span<const Vertex> s, double delta) = 0;
  virtual WeakQueryResult query_cover_impl(std::span<const Vertex> s_plus,
                                           std::span<const Vertex> s_minus,
                                           double delta) = 0;

 private:
  std::int64_t calls_ = 0;
  std::int64_t rows_queried_ = 0;
};

/// A_weak over a maintained adjacency bit-matrix (the representation the
/// paper assumes in Section 6.1): greedy maximal matching on G[S] by masked
/// row probes, O(|S| * n / 64) per query; lambda = 1/2 deterministically.
class MatrixWeakOracle final : public WeakOracle {
 public:
  explicit MatrixWeakOracle(Vertex n);
  /// Preloaded from a static graph.
  static MatrixWeakOracle from_graph(const Graph& g);

  [[nodiscard]] double lambda() const override { return 0.5; }
  void on_insert(Vertex u, Vertex v) override { adj_.set(u, v), adj_.set(v, u); }
  void on_erase(Vertex u, Vertex v) override {
    adj_.set(u, v, false), adj_.set(v, u, false);
  }
  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] const BitMatrix& adjacency() const { return adj_; }

  /// Words of matrix data touched by queries so far (the time proxy).
  /// Exact: every masked row probe charges the 64-bit words it actually read
  /// (the scan early-exits at the first set word), so this equals the words
  /// scanned, not a per-probe worst-case bound.
  [[nodiscard]] std::int64_t words_touched() const { return words_touched_; }

 protected:
  WeakQueryResult query_impl(std::span<const Vertex> s, double delta) override;
  WeakQueryResult query_cover_impl(std::span<const Vertex> s_plus,
                                   std::span<const Vertex> s_minus,
                                   double delta) override;

 private:
  Vertex n_;
  BitMatrix adj_;
  std::int64_t words_touched_ = 0;
};

}  // namespace bmf
