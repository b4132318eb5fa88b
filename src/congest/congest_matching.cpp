#include "congest/congest_matching.hpp"

#include <algorithm>

#include "graph/graph.hpp"
#include "util/assert.hpp"

namespace bmf::congest {
namespace {

// Message words (low 2 bits = kind, rest unused payload space).
enum Word : std::uint64_t { kPropose = 1, kAccept = 2, kDead = 3 };

}  // namespace

CongestMatchingResult congest_maximal_matching(Network& net, Rng& rng) {
  const Graph& g = net.graph();
  const Vertex n = g.num_vertices();
  const std::int64_t rounds_before = net.rounds();

  std::vector<Vertex> mate(static_cast<std::size_t>(n), kNoVertex);
  // Per-vertex random streams, split deterministically from the caller's
  // generator: each vertex draws only from its own stream, so a vertex's
  // proposals do not depend on how many draws other vertices made. The
  // split order fixes every output of this function.
  std::vector<Rng> vertex_rng;
  vertex_rng.reserve(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) vertex_rng.push_back(rng.split());
  // Live neighbor views are maintained locally by each vertex; deaths are
  // communicated by the kDead word.
  std::vector<std::vector<Vertex>> live(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) {
    const auto nb = g.neighbors(v);
    live[static_cast<std::size_t>(v)].assign(nb.begin(), nb.end());
  }
  std::vector<std::uint8_t> announced(static_cast<std::size_t>(n), 0);

  auto any_live_edge = [&]() {
    for (Vertex v = 0; v < n; ++v) {
      if (mate[static_cast<std::size_t>(v)] != kNoVertex) continue;
      for (Vertex w : live[static_cast<std::size_t>(v)])
        if (mate[static_cast<std::size_t>(w)] == kNoVertex) return true;
    }
    return false;
  };

  std::int64_t iterations = 0;
  std::vector<Vertex> proposed_to(static_cast<std::size_t>(n), kNoVertex);
  std::vector<Vertex> accepted_from(static_cast<std::size_t>(n), kNoVertex);

  while (any_live_edge()) {
    ++iterations;

    // Round 1: free vertices propose to a random live free neighbor; freshly
    // matched vertices announce death to all remaining live neighbors.
    net.round([&](Vertex v, const Network::Inbox&, const Network::Sender& send) {
      auto& lv = live[static_cast<std::size_t>(v)];
      std::erase_if(lv, [&](Vertex w) {
        return mate[static_cast<std::size_t>(w)] != kNoVertex;
      });
      if (mate[static_cast<std::size_t>(v)] != kNoVertex) {
        if (!announced[static_cast<std::size_t>(v)]) {
          announced[static_cast<std::size_t>(v)] = 1;
          for (Vertex w : lv) send(w, kDead);
        }
        proposed_to[static_cast<std::size_t>(v)] = kNoVertex;
        return;
      }
      proposed_to[static_cast<std::size_t>(v)] = kNoVertex;
      if (lv.empty()) return;
      const Vertex target = lv[static_cast<std::size_t>(
          vertex_rng[static_cast<std::size_t>(v)].next_below(lv.size()))];
      proposed_to[static_cast<std::size_t>(v)] = target;
      send(target, kPropose);
    });

    // Round 2: free vertices accept exactly one received proposal (the
    // lowest-id proposer); a proposer whose target accepts it is matched.
    net.round([&](Vertex v, const Network::Inbox& inbox, const Network::Sender& send) {
      if (mate[static_cast<std::size_t>(v)] != kNoVertex) return;
      Vertex chosen = kNoVertex;
      for (const auto& [from, word] : inbox) {
        if (word != kPropose) continue;
        if (mate[static_cast<std::size_t>(from)] != kNoVertex) continue;
        if (chosen == kNoVertex || from < chosen) chosen = from;
      }
      if (chosen != kNoVertex) send(chosen, kAccept);
    });

    // Resolve handshakes: v proposed to t and t accepted v. Acceptances were
    // delivered into the next round's inboxes; resolve them with one more
    // round so the message accounting stays within the model. The candidate
    // pairs are NOT vertex-disjoint — a vertex can have its own proposal
    // accepted while also being the acceptor of another proposal — so
    // handlers only record the acceptance they received (per-vertex slot),
    // and the matches are applied after the round in vertex order: one
    // global greedy over the accepted proposals.
    std::fill(accepted_from.begin(), accepted_from.end(), kNoVertex);
    net.round([&](Vertex v, const Network::Inbox& inbox, const Network::Sender&) {
      for (const auto& [from, word] : inbox) {
        if (word != kAccept) continue;
        // `from` accepted v's proposal.
        if (proposed_to[static_cast<std::size_t>(v)] == from)
          accepted_from[static_cast<std::size_t>(v)] = from;
      }
    });
    for (Vertex v = 0; v < n; ++v) {
      const Vertex from = accepted_from[static_cast<std::size_t>(v)];
      if (from == kNoVertex) continue;
      if (mate[static_cast<std::size_t>(v)] == kNoVertex &&
          mate[static_cast<std::size_t>(from)] == kNoVertex) {
        mate[static_cast<std::size_t>(v)] = from;
        mate[static_cast<std::size_t>(from)] = v;
      }
    }
  }

  CongestMatchingResult result;
  for (Vertex v = 0; v < n; ++v)
    if (mate[static_cast<std::size_t>(v)] > v)
      result.matching.emplace_back(v, mate[static_cast<std::size_t>(v)]);
  result.rounds = net.rounds() - rounds_before;
  result.iterations = iterations;
  BMF_ASSERT(net.violations() == 0);
  return result;
}

OracleMatching CongestMatchingOracle::find_impl(const OracleGraph& h) {
  GraphBuilder b(h.n);
  for (const auto& [u, v] : h.edges) b.add_edge(u, v);
  const Graph g = b.build();
  Network net(g);
  CongestMatchingResult r = congest_maximal_matching(net, rng_);
  rounds_ += r.rounds;
  return std::move(r.matching);
}

}  // namespace bmf::congest
