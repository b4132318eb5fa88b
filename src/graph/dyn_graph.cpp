#include "graph/dyn_graph.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace bmf {

DynGraph::DynGraph(Vertex num_vertices)
    : n_(num_vertices), adj_(static_cast<std::size_t>(num_vertices)) {
  BMF_REQUIRE(num_vertices >= 0, "DynGraph: negative vertex count");
}

void DynGraph::link(Vertex u, Vertex v) {
  auto& a = adj_[static_cast<std::size_t>(u)];
  a.insert(std::lower_bound(a.begin(), a.end(), v), v);
}

void DynGraph::unlink(Vertex u, Vertex v) {
  auto& a = adj_[static_cast<std::size_t>(u)];
  const auto it = std::lower_bound(a.begin(), a.end(), v);
  BMF_ASSERT(it != a.end() && *it == v);
  a.erase(it);
}

bool DynGraph::insert(Vertex u, Vertex v) {
  BMF_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_ && u != v,
              "DynGraph::insert: invalid edge");
  auto& a = adj_[static_cast<std::size_t>(u)];
  const auto it = std::lower_bound(a.begin(), a.end(), v);
  if (it != a.end() && *it == v) return false;
  a.insert(it, v);
  link(v, u);
  ++m_;
  return true;
}

bool DynGraph::erase(Vertex u, Vertex v) {
  BMF_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_ && u != v,
              "DynGraph::erase: invalid edge");
  auto& a = adj_[static_cast<std::size_t>(u)];
  const auto it = std::lower_bound(a.begin(), a.end(), v);
  if (it == a.end() || *it != v) return false;
  a.erase(it);
  unlink(v, u);
  --m_;
  return true;
}

bool DynGraph::has_edge(Vertex u, Vertex v) const {
  if (u < 0 || v < 0 || u >= n_ || v >= n_ || u == v) return false;
  const auto& a = adj_[static_cast<std::size_t>(u)];
  return std::binary_search(a.begin(), a.end(), v);
}

Graph DynGraph::snapshot() const {
  GraphBuilder b(n_);
  for (Vertex u = 0; u < n_; ++u)
    for (Vertex v : adj_[static_cast<std::size_t>(u)])
      if (u < v) b.add_edge(u, v);
  return b.build();
}

}  // namespace bmf
