#pragma once

/// Inputs of the static boosting tests, shared by the static golden record
/// (tests/test_static_golden.cpp), the oracle-input pins
/// (tests/test_oracle_input_pin.cpp) and the framework invariant tests
/// (tests/test_framework.cpp).

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "workloads/gen.hpp"

namespace bmf::testinputs {

struct NamedGraph {
  std::string name;
  Graph g;
};

/// The static golden record's six graphs. Odd cycles force contractions,
/// chains force long augmenting paths, and sparse random graphs make
/// structures compete for the same matched arcs, so Overtake case 2.2 steals
/// occur too (35 of the record's 162 lines record one).
inline std::vector<NamedGraph> golden_graphs() {
  std::vector<NamedGraph> out;
  out.push_back({"odd_cycles_9x7", gen_odd_cycles(9, 7)});
  out.push_back({"chains_7x6", gen_adversarial_chains(7, 6)});
  {
    Rng rng(41);
    out.push_back({"gnm_121x484", gen_random_graph(121, 484, rng)});
  }
  // Sparse G(n, m) leaves several free vertices after the initial matching,
  // and these two seeds make structures steal from each other at every eps.
  {
    Rng rng(2);
    out.push_back({"gnm_121x242", gen_random_graph(121, 242, rng)});
  }
  {
    Rng rng(5);
    out.push_back({"gnm_61x90", gen_random_graph(61, 90, rng)});
  }
  {
    const Graph cycles = gen_odd_cycles(11, 9);
    std::vector<Edge> edges(cycles.edges().begin(), cycles.edges().end());
    Rng rng(43);
    const Graph chords = gen_random_graph(cycles.num_vertices(), 60, rng);
    edges.insert(edges.end(), chords.edges().begin(), chords.edges().end());
    out.push_back({"cycles_chords_99", make_graph(cycles.num_vertices(), edges)});
  }
  return out;
}

/// G(601, 2404) with no isolated vertex, drawn like the static benchmark's
/// inputs: the odd n leaves a free vertex, so the boost runs to its
/// certificate, and working blossoms nest dozens of composites deep.
inline Graph sparse_odd_random_graph(std::uint64_t seed) {
  Rng rng(seed);
  for (;;) {
    Graph g = gen_random_graph(601, 2404, rng);
    bool isolated = false;
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      isolated = isolated || g.degree(v) == 0;
    if (!isolated) return g;
  }
}

}  // namespace bmf::testinputs
