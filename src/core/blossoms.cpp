#include "core/blossoms.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace bmf {

void BlossomArena::reset(Vertex n) {
  n_ = n;
  nodes_.assign(static_cast<std::size_t>(n), BlossomNode{});
  next_.assign(static_cast<std::size_t>(n), kNoVertex);
  group_.resize(static_cast<std::size_t>(n));
  group_root_.resize(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) {
    BlossomNode& b = nodes_[static_cast<std::size_t>(v)];
    b.vert = v;
    b.base = v;
    b.first = b.last = v;
    b.size = 1;
    group_[static_cast<std::size_t>(v)] = v;
    group_root_[static_cast<std::size_t>(v)] = trivial(v);
  }
}

BlossomId BlossomArena::make_composite(std::vector<BlossomId> cycle,
                                       std::vector<Edge> cycle_edges) {
  BMF_ASSERT(cycle.size() >= 3 && cycle.size() % 2 == 1);
  BMF_ASSERT(cycle.size() == cycle_edges.size());
  const auto id = static_cast<BlossomId>(nodes_.size());
  BlossomNode nb;
  nb.base = node(cycle.front()).base;
  nb.cycle = std::move(cycle);
  nb.cycle_edges = std::move(cycle_edges);
  // Join the children's runs in cycle order and find the largest child (the
  // first of equal sizes).
  nb.first = node(nb.cycle.front()).first;
  Vertex prev_last = kNoVertex;
  BlossomId largest = nb.cycle.front();
  for (BlossomId child : nb.cycle) {
    BlossomNode& cn = node(child);
    BMF_ASSERT(cn.parent == kNoBlossom);
    cn.parent = id;
    if (prev_last != kNoVertex) next_[static_cast<std::size_t>(prev_last)] = cn.first;
    prev_last = cn.last;
    nb.size += cn.size;
    if (cn.size > node(largest).size) largest = child;
  }
  nb.last = prev_last;
  // The largest child's group becomes the new blossom's; the others join it.
  const Vertex group = group_[static_cast<std::size_t>(node(largest).first)];
  group_root_[static_cast<std::size_t>(group)] = id;
  for (BlossomId child : nb.cycle) {
    if (child == largest) continue;
    for_each_vertex(child,
                    [&](Vertex w) { group_[static_cast<std::size_t>(w)] = group; });
  }
  nodes_.push_back(std::move(nb));
  return id;
}

void BlossomArena::collect_vertices(BlossomId b, std::vector<Vertex>& out) const {
  for_each_vertex(b, [&](Vertex w) { out.push_back(w); });
}

std::vector<Vertex> BlossomArena::vertices(BlossomId b) const {
  std::vector<Vertex> out;
  collect_vertices(b, out);
  return out;
}

std::size_t BlossomArena::child_index_containing(BlossomId b, Vertex v) const {
  // Walk up from v's trivial blossom until the parent is b itself.
  BlossomId cur = trivial(v);
  while (node(cur).parent != b) {
    cur = node(cur).parent;
    BMF_ASSERT_MSG(cur != kNoBlossom, "vertex not contained in blossom");
  }
  const auto& cycle = node(b).cycle;
  const auto it = std::find(cycle.begin(), cycle.end(), cur);
  BMF_ASSERT(it != cycle.end());
  return static_cast<std::size_t>(it - cycle.begin());
}

std::vector<Vertex> BlossomArena::even_path(BlossomId b, Vertex target) const {
  const BlossomNode& nb = node(b);
  if (nb.is_trivial()) {
    BMF_ASSERT(nb.vert == target);
    return {target};
  }
  const std::size_t k1 = nb.cycle.size();  // k + 1 children, k1 odd
  const std::size_t i = child_index_containing(b, target);
  if (i == 0) return even_path(nb.cycle[0], target);

  // Traversal through an intermediate child from entry vertex x to exit
  // vertex y; exactly one of them is the child's base (the matched cycle
  // edge attaches at the base).
  auto through = [&](BlossomId child, Vertex x, Vertex y, std::vector<Vertex>& out) {
    const Vertex cb = node(child).base;
    BMF_ASSERT_MSG(x == cb || y == cb, "cycle edge not anchored at child base");
    std::vector<Vertex> seg;
    if (x == cb) {
      seg = even_path(child, y);
    } else {
      seg = even_path(child, x);
      std::reverse(seg.begin(), seg.end());
    }
    out.insert(out.end(), seg.begin(), seg.end());
  };

  std::vector<Vertex> out;
  if (i % 2 == 0) {
    // Forward: children 0, 1, ..., i via edges e_0 .. e_{i-1} (i edges; i even
    // keeps the total path length even). Edge e_j = {a in cycle[j], b in
    // cycle[j+1]}.
    auto exit_of = [&](std::size_t j) { return nb.cycle_edges[j].u; };
    auto entry_of = [&](std::size_t j) { return nb.cycle_edges[j].v; };
    // A_0: from base(b) to the e_0 endpoint inside A_0.
    {
      std::vector<Vertex> seg = even_path(nb.cycle[0], exit_of(0));
      out.insert(out.end(), seg.begin(), seg.end());
    }
    for (std::size_t j = 1; j < i; ++j)
      through(nb.cycle[j], entry_of(j - 1), exit_of(j), out);
    // Target child entered at its base via the matched edge e_{i-1}.
    BMF_ASSERT(entry_of(i - 1) == node(nb.cycle[i]).base);
    std::vector<Vertex> seg = even_path(nb.cycle[i], target);
    out.insert(out.end(), seg.begin(), seg.end());
  } else {
    // Backward: children 0, k, k-1, ..., i via edges e_k, e_{k-1}, ..., e_i
    // (k+1-i edges; even because k is even and i odd). Traversing e_j from
    // cycle[j+1] down to cycle[j]: leave at e_j.v, arrive at e_j.u.
    const std::size_t k = k1 - 1;
    {
      // A_0: from base(b) to the e_k endpoint inside A_0 (e_k = {a in A_k, b in A_0}).
      std::vector<Vertex> seg = even_path(nb.cycle[0], nb.cycle_edges[k].v);
      out.insert(out.end(), seg.begin(), seg.end());
    }
    for (std::size_t j = k; j > i; --j)
      through(nb.cycle[j], nb.cycle_edges[j].u, nb.cycle_edges[j - 1].v, out);
    // Target child entered at its base via the matched edge e_i.
    BMF_ASSERT(nb.cycle_edges[i].u == node(nb.cycle[i]).base);
    std::vector<Vertex> seg = even_path(nb.cycle[i], target);
    out.insert(out.end(), seg.begin(), seg.end());
  }
  BMF_ASSERT(out.front() == nb.base && out.back() == target);
  BMF_ASSERT(out.size() % 2 == 1);  // even number of edges
  return out;
}

int BlossomArena::depth(Vertex v) const {
  int d = 0;
  BlossomId b = trivial(v);
  while (node(b).parent != kNoBlossom) {
    b = node(b).parent;
    ++d;
  }
  return d;
}

}  // namespace bmf
