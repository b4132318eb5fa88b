#pragma once

/// A CONGEST simulator (Section 3.4).
///
/// One machine per vertex, topology = the graph's edges. Per synchronous
/// round, each machine may send one O(log n)-bit message (one 64-bit word
/// here) along each incident edge; different edges may carry different
/// messages. Sending two messages over the same edge in one round is a model
/// violation and is counted (tests require zero violations).
///
/// Vertex handlers run in vertex order; every send lands in the recipient's
/// next-round inbox, so each inbox lists its senders in ascending id. The
/// round is serial because a pool fan-out over the handlers measured slower
/// than this loop. Handlers should mutate only their own vertex's state:
/// anything a vertex learns from another must arrive as a message.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"

namespace bmf::congest {

class Network {
 public:
  explicit Network(const Graph& g);

  [[nodiscard]] const Graph& graph() const { return g_; }
  [[nodiscard]] std::int64_t rounds() const { return rounds_; }
  [[nodiscard]] std::int64_t messages() const { return messages_; }
  [[nodiscard]] std::int64_t violations() const { return violations_; }

  /// Messages delivered to a vertex this round: (neighbor, word) pairs.
  using Inbox = std::vector<std::pair<Vertex, std::uint64_t>>;
  /// send(neighbor, word): transmit one word to an adjacent vertex.
  using Sender = std::function<void(Vertex, std::uint64_t)>;

  /// One synchronous round; `step(v, inbox, send)` runs on every vertex.
  void round(const std::function<void(Vertex v, const Inbox&, const Sender&)>& step);

  /// Charge rounds without simulating (used for primitives whose round count
  /// is known exactly and whose messages are uninteresting).
  void charge_rounds(std::int64_t r) { rounds_ += r; }

 private:
  const Graph& g_;
  std::int64_t rounds_ = 0;
  std::int64_t messages_ = 0;
  std::int64_t violations_ = 0;
  std::vector<Inbox> inboxes_;
};

/// Convergecast + broadcast inside disjoint connected components: every
/// vertex of each component learns the aggregate (here: min over the
/// submitted words). Runs on a BFS tree per component; the round cost is
/// 2 * max tree depth (+2 for tree setup accounting), matching the
/// poly(1/eps)-round A_process of Appendix A.
///
/// `components` lists the vertex sets; returns the aggregate per component
/// and advances the network's round counter.
[[nodiscard]] std::vector<std::uint64_t> component_aggregate_min(
    Network& net, const std::vector<std::vector<Vertex>>& components,
    const std::vector<std::uint64_t>& values);

}  // namespace bmf::congest
