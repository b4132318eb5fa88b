#pragma once

/// The Theta(1)-approximate matching oracle `A_matching` (Definition 5.1).
///
/// The boosting framework never looks inside the oracle; it only counts
/// invocations — the quantity Table 1 of the paper is about. Oracles receive
/// small derived graphs (H' of Definition 5.4, H'_s of Definition 5.8) as
/// plain edge lists over compact vertex ids.

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "matching/matching.hpp"
#include "util/rng.hpp"

namespace bmf {

/// A derived graph handed to the oracle: `n` vertices, simple edge list.
struct OracleGraph {
  std::int32_t n = 0;
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
};

/// The whole input graph as an oracle instance (tests and benches hand full
/// graphs to A_matching implementations directly).
[[nodiscard]] OracleGraph to_oracle_graph(const Graph& g);

using OracleMatching = std::vector<std::pair<std::int32_t, std::int32_t>>;

class MatchingOracle {
 public:
  virtual ~MatchingOracle() = default;

  /// Returns a c-approximate maximum matching of h (c = approx_factor()).
  [[nodiscard]] OracleMatching find_matching(const OracleGraph& h) {
    ++calls_;
    vertices_ += h.n;
    edges_ += static_cast<std::int64_t>(h.edges.size());
    return find_impl(h);
  }

  [[nodiscard]] virtual double approx_factor() const = 0;

  [[nodiscard]] std::int64_t calls() const { return calls_; }
  [[nodiscard]] std::int64_t total_vertices() const { return vertices_; }
  [[nodiscard]] std::int64_t total_edges() const { return edges_; }
  void reset_counters() { calls_ = vertices_ = edges_ = 0; }

 protected:
  virtual OracleMatching find_impl(const OracleGraph& h) = 0;

 private:
  std::int64_t calls_ = 0;
  std::int64_t vertices_ = 0;
  std::int64_t edges_ = 0;
};

/// Greedy maximal matching in edge order; c = 2.
class GreedyMatchingOracle final : public MatchingOracle {
 public:
  [[nodiscard]] double approx_factor() const override { return 2.0; }

 protected:
  OracleMatching find_impl(const OracleGraph& h) override;
};

/// Greedy maximal matching over a random edge permutation; c = 2.
class RandomGreedyMatchingOracle final : public MatchingOracle {
 public:
  explicit RandomGreedyMatchingOracle(std::uint64_t seed) : rng_(seed) {}
  [[nodiscard]] double approx_factor() const override { return 2.0; }

 protected:
  OracleMatching find_impl(const OracleGraph& h) override;

 private:
  Rng rng_;
};

/// Best of k independent random-greedy samples; still c = 2 in the worst
/// case, but empirically much closer to maximum already for small k. The k
/// samples are independent repetitions with per-sample Rng streams split
/// from the oracle's seed, fanned out across the thread pool; the largest
/// sample wins, ties breaking to the lowest sample index, so the answer is
/// bit-identical at any thread count.
class BestOfKRandomGreedyOracle final : public MatchingOracle {
 public:
  /// threads: 0 = hardware concurrency, 1 = serial; a larger value is capped
  /// at hardware concurrency.
  BestOfKRandomGreedyOracle(std::uint64_t seed, int samples, int threads = 0);
  [[nodiscard]] double approx_factor() const override { return 2.0; }

 protected:
  OracleMatching find_impl(const OracleGraph& h) override;

 private:
  Rng rng_;
  int samples_;
  int threads_;
};

/// Exact maximum matching (Edmonds); c = 1. Used in ablations and tests.
class ExactMatchingOracle final : public MatchingOracle {
 public:
  [[nodiscard]] double approx_factor() const override { return 1.0; }

 protected:
  OracleMatching find_impl(const OracleGraph& h) override;
};

/// Greedy maximal matching as a free function over an OracleGraph.
[[nodiscard]] OracleMatching greedy_oracle_matching(const OracleGraph& h);

}  // namespace bmf
