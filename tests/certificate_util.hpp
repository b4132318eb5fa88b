#pragma once

/// Brute-force certificate checker shared by the static certificate audit
/// (tests/test_io_and_extensions.cpp) and the dynamic one
/// (tests/test_dynamic.cpp): a certified run promises no augmenting path of
/// length <= l_max (Theorem B.4), and this header is the one place that
/// looks for such a path.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "matching/matching.hpp"

namespace bmf::testcert {

/// True if g has an M-augmenting path of at most max_len edges. Brute force
/// over every simple alternating path from every free vertex, so paths
/// through odd cycles (blossoms) count too; exponential, for small n only.
inline bool has_short_augmenting_path(const Graph& g, const Matching& m, int max_len) {
  std::vector<std::uint8_t> on_path(static_cast<std::size_t>(g.num_vertices()), 0);
  const auto mark = [&](Vertex v, std::uint8_t value) {
    on_path[static_cast<std::size_t>(v)] = value;
  };
  // The path has len edges and ends at v, entered by a matched edge (or v is
  // the free start): extend it by an unmatched edge, then the matched one.
  const auto extend = [&](const auto& self, Vertex v, int len) -> bool {
    for (const Vertex x : g.neighbors(v)) {
      if (on_path[static_cast<std::size_t>(x)] != 0) continue;
      if (m.is_free(x)) return true;  // augmenting, len + 1 <= max_len edges
      const Vertex y = m.mate(x);
      if (len + 3 > max_len || on_path[static_cast<std::size_t>(y)] != 0) continue;
      mark(x, 1);
      mark(y, 1);
      const bool found = self(self, y, len + 2);
      mark(x, 0);
      mark(y, 0);
      if (found) return true;
    }
    return false;
  };
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    if (!m.is_free(s) || max_len < 1) continue;
    mark(s, 1);
    const bool found = extend(extend, s, 0);
    mark(s, 0);
    if (found) return true;
  }
  return false;
}

}  // namespace bmf::testcert
