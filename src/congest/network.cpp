#include "congest/network.hpp"

#include <deque>

#include "util/assert.hpp"

namespace bmf::congest {

Network::Network(const Graph& g)
    : g_(g), inboxes_(static_cast<std::size_t>(g.num_vertices())) {}

void Network::round(
    const std::function<void(Vertex v, const Inbox&, const Sender&)>& step) {
  const Vertex n = g_.num_vertices();
  std::vector<Inbox> next(static_cast<std::size_t>(n));
  std::unordered_map<std::uint64_t, int> channel_use;
  for (Vertex v = 0; v < n; ++v) {
    const Sender send = [&](Vertex to, std::uint64_t word) {
      BMF_ASSERT_MSG(g_.has_edge(v, to), "CONGEST send along a non-edge");
      const std::uint64_t channel =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)) << 32) |
          static_cast<std::uint32_t>(to);
      if (++channel_use[channel] > 1) ++violations_;
      next[static_cast<std::size_t>(to)].emplace_back(v, word);
      ++messages_;
    };
    step(v, inboxes_[static_cast<std::size_t>(v)], send);
  }
  inboxes_ = std::move(next);
  ++rounds_;
}

std::vector<std::uint64_t> component_aggregate_min(
    Network& net, const std::vector<std::vector<Vertex>>& components,
    const std::vector<std::uint64_t>& values) {
  const Graph& g = net.graph();
  BMF_REQUIRE(static_cast<Vertex>(values.size()) == g.num_vertices(),
              "component_aggregate_min: values size mismatch");

  // Build BFS trees (representative = first vertex of each component); the
  // simulator computes the trees centrally but charges the rounds a
  // distributed convergecast+broadcast would take: 2 * depth + 2.
  std::vector<std::uint64_t> result(components.size(), ~0ULL);
  std::vector<std::int32_t> comp_of(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t c = 0; c < components.size(); ++c)
    for (Vertex v : components[c])
      comp_of[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(c);

  std::int64_t max_depth = 0;
  for (std::size_t c = 0; c < components.size(); ++c) {
    if (components[c].empty()) continue;
    std::unordered_map<Vertex, std::int64_t> depth;
    std::deque<Vertex> queue{components[c].front()};
    depth[components[c].front()] = 0;
    std::uint64_t agg = values[static_cast<std::size_t>(components[c].front())];
    while (!queue.empty()) {
      const Vertex v = queue.front();
      queue.pop_front();
      agg = std::min(agg, values[static_cast<std::size_t>(v)]);
      for (Vertex w : g.neighbors(v)) {
        if (comp_of[static_cast<std::size_t>(w)] != static_cast<std::int32_t>(c))
          continue;
        if (depth.contains(w)) continue;
        depth[w] = depth[v] + 1;
        max_depth = std::max(max_depth, depth[w]);
        queue.push_back(w);
      }
    }
    BMF_ASSERT_MSG(depth.size() == components[c].size(),
                   "component_aggregate_min: component not connected");
    result[c] = agg;
  }
  net.charge_rounds(2 * max_depth + 2);
  return result;
}

}  // namespace bmf::congest
