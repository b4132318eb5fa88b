#include <gtest/gtest.h>

#include "congest/congest_boost.hpp"
#include "congest/congest_matching.hpp"
#include "congest/network.hpp"
#include "matching/blossom_exact.hpp"
#include "workloads/gen.hpp"

namespace bmf::congest {
namespace {

TEST(Network, DeliversAlongEdgesOnly) {
  const Graph g = make_graph(3, std::vector<Edge>{{0, 1}, {1, 2}});
  Network net(g);
  net.round([&](Vertex v, const Network::Inbox&, const Network::Sender& send) {
    if (v == 0) send(1, 99);
  });
  bool got = false;
  net.round([&](Vertex v, const Network::Inbox& inbox, const Network::Sender&) {
    if (v == 1) {
      ASSERT_EQ(inbox.size(), 1u);
      EXPECT_EQ(inbox[0].first, 0);
      EXPECT_EQ(inbox[0].second, 99u);
      got = true;
    } else {
      EXPECT_TRUE(inbox.empty());
    }
  });
  EXPECT_TRUE(got);
  EXPECT_EQ(net.rounds(), 2);
  EXPECT_EQ(net.violations(), 0);
}

TEST(Network, DoubleSendOnEdgeIsViolation) {
  const Graph g = make_graph(2, std::vector<Edge>{{0, 1}});
  Network net(g);
  net.round([&](Vertex v, const Network::Inbox&, const Network::Sender& send) {
    if (v == 0) {
      send(1, 1);
      send(1, 2);
    }
  });
  EXPECT_EQ(net.violations(), 1);
}

TEST(Network, ComponentAggregateMinRoundsScaleWithSize) {
  const Graph g = gen_disjoint_paths(3, 4);  // 3 paths of 5 vertices
  Network net(g);
  std::vector<std::vector<Vertex>> comps;
  for (Vertex c = 0; c < 3; ++c) {
    std::vector<Vertex> comp;
    for (Vertex i = 0; i < 5; ++i) comp.push_back(c * 5 + i);
    comps.push_back(comp);
  }
  std::vector<std::uint64_t> values(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    values[static_cast<std::size_t>(v)] = 100 + static_cast<std::uint64_t>(v);
  const auto mins = component_aggregate_min(net, comps, values);
  EXPECT_EQ(mins, (std::vector<std::uint64_t>{100, 105, 110}));
  // 2 * depth + 2 with depth = 4 (BFS from the first vertex of a path).
  EXPECT_EQ(net.rounds(), 2 * 4 + 2);
}

std::uint64_t pair_digest(std::uint64_t digest, Vertex u, Vertex v) {
  const std::uint64_t key =
      static_cast<std::uint64_t>(u) << 32 | static_cast<std::uint32_t>(v);
  return (digest ^ key) * 1099511628211ULL;  // FNV-1a step over the pair
}

// Exact outputs on fixed seeds: a change to the round's delivery order, its
// message accounting or the handshake's draw order moves them.
TEST(Network, SerialRoundsReproducePinnedOutputs) {
  Rng grng(23);
  const Graph g = gen_random_graph(400, 1600, grng);
  Network net(g);
  Rng rng(99);
  const CongestMatchingResult r = congest_maximal_matching(net, rng);
  std::uint64_t digest = 1469598103934665603ULL;
  for (const auto& [u, v] : r.matching) digest = pair_digest(digest, u, v);
  EXPECT_EQ(r.matching.size(), 176u);
  EXPECT_EQ(digest, 0xfaee4b82a229bd35ULL);
  EXPECT_EQ(r.rounds, 9);
  EXPECT_EQ(r.iterations, 3);
  EXPECT_EQ(net.messages(), 1463);
  EXPECT_EQ(net.violations(), 0);

  Rng brng(31);
  const Graph h = gen_planted_matching(120, 260, brng);
  CoreConfig cfg;
  cfg.eps = 0.25;
  cfg.seed = 5;
  const CongestBoostResult b = congest_boost_matching(h, cfg);
  std::uint64_t boost_digest = 1469598103934665603ULL;
  for (const Edge& e : b.boost.matching.edge_list())
    boost_digest = pair_digest(boost_digest, e.u, e.v);
  EXPECT_EQ(b.boost.matching.size(), 60);
  EXPECT_EQ(boost_digest, 0xd7997655c6365757ULL);
  EXPECT_EQ(b.boost.total_oracle_calls, 17);
  EXPECT_EQ(b.oracle_rounds, 54);
  EXPECT_EQ(b.process_rounds, 184);
}

class CongestMatchingTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CongestMatchingTest, HandshakesReachMaximality) {
  Rng grng(GetParam());
  const Graph g = gen_random_graph(70, 200, grng);
  Network net(g);
  Rng rng(GetParam() + 5);
  const CongestMatchingResult r = congest_maximal_matching(net, rng);
  Matching m(g.num_vertices());
  for (const auto& [u, v] : r.matching) m.add(u, v);
  EXPECT_TRUE(m.is_valid_in(g));
  EXPECT_TRUE(m.is_maximal_in(g));
  EXPECT_EQ(net.violations(), 0);
  EXPECT_EQ(r.rounds, 3 * r.iterations);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CongestMatchingTest,
                         ::testing::Values(1, 2, 3, 9, 31));

TEST(CongestBoost, MeetsGuaranteeAndChargesProcessRounds) {
  Rng rng(13);
  const Graph g = gen_planted_matching(100, 200, rng);
  CoreConfig cfg;
  cfg.eps = 0.25;
  const CongestBoostResult r = congest_boost_matching(g, cfg);
  EXPECT_GE(static_cast<double>(r.boost.matching.size()) * 1.25,
            static_cast<double>(maximum_matching_size(g)));
  EXPECT_GT(r.oracle_rounds, 0);
  EXPECT_GT(r.process_rounds, 0);
  EXPECT_GE(r.max_structure_size, 1);
  // A_process rounds grow with structure size (poly(1/eps)), not with n.
  EXPECT_LE(r.max_structure_size,
            static_cast<std::int64_t>(g.num_vertices()));
}

TEST(CongestBoost, LongChains) {
  const Graph g = gen_augmenting_chains(6, 4);
  CoreConfig cfg;
  cfg.eps = 0.2;
  const CongestBoostResult r = congest_boost_matching(g, cfg);
  EXPECT_GE(static_cast<double>(r.boost.matching.size()) * 1.2,
            static_cast<double>(maximum_matching_size(g)));
}

}  // namespace
}  // namespace bmf::congest
