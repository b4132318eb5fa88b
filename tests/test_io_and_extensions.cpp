#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "dynamic/partial_dynamic.hpp"
#include "dynamic/weak_oracle.hpp"
#include "io/graph_io.hpp"
#include "matching/augmenting.hpp"
#include "matching/blossom_exact.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "stream/streaming_matcher.hpp"
#include "workloads/dyn_workload.hpp"
#include "workloads/gen.hpp"

namespace bmf {
namespace {

// ---------------------------------------------------------------------------
// IO
// ---------------------------------------------------------------------------

TEST(GraphIo, EdgeListRoundtrip) {
  Rng rng(3);
  const Graph g = gen_random_graph(30, 80, rng);
  std::stringstream buf;
  write_edge_list(buf, g);
  const Graph back = read_edge_list(buf);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  for (const Edge& e : g.edges()) EXPECT_TRUE(back.has_edge(e.u, e.v));
}

TEST(GraphIo, EdgeListCommentsAndHeader) {
  std::stringstream in("# a comment\n# vertices 7\n0 1\n2 3\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 7);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(GraphIo, EdgeListMalformedRejected) {
  std::stringstream bad1("0\n");
  EXPECT_THROW((void)read_edge_list(bad1), std::invalid_argument);
  std::stringstream bad2("0 -2\n");
  EXPECT_THROW((void)read_edge_list(bad2), std::invalid_argument);
}

TEST(GraphIo, WeightedEdgeList) {
  std::stringstream in("# vertices 4\n0 1 2.5\n2 3\n");
  const WeightedGraph wg = read_weighted_edge_list(in);
  EXPECT_EQ(wg.n, 4);
  ASSERT_EQ(wg.edges.size(), 2u);
  EXPECT_DOUBLE_EQ(wg.edges[0].w, 2.5);
  EXPECT_DOUBLE_EQ(wg.edges[1].w, 1.0);  // default weight
}

TEST(GraphIo, DimacsRoundtrip) {
  Rng rng(5);
  const Graph g = gen_random_graph(25, 60, rng);
  std::stringstream buf;
  write_dimacs(buf, g);
  const Graph back = read_dimacs(buf);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
}

TEST(GraphIo, DimacsValidation) {
  std::stringstream no_p("e 1 2\n");
  EXPECT_THROW((void)read_dimacs(no_p), std::invalid_argument);
  std::stringstream out_of_range("p edge 3 1\ne 1 9\n");
  EXPECT_THROW((void)read_dimacs(out_of_range), std::invalid_argument);
  std::stringstream count_mismatch("p edge 3 2\ne 1 2\n");
  EXPECT_THROW((void)read_dimacs(count_mismatch), std::invalid_argument);
}

TEST(GraphIo, SelfLoopsRejectedByAllReaders) {
  // One policy across readers: a self-loop is malformed input, not something
  // to silently drop (the unweighted reader used to wave it through).
  std::stringstream plain("0 1\n2 2\n");
  EXPECT_THROW((void)read_edge_list(plain), std::invalid_argument);
  std::stringstream weighted("0 1 2.0\n2 2 1.5\n");
  EXPECT_THROW((void)read_weighted_edge_list(weighted), std::invalid_argument);
  std::stringstream dimacs("p edge 3 1\ne 2 2\n");
  EXPECT_THROW((void)read_dimacs(dimacs), std::invalid_argument);
}

TEST(GraphIo, RepeatedEdgesDeduplicated) {
  std::stringstream plain("0 1\n1 0\n0 1\n1 2\n");
  const Graph g = read_edge_list(plain);
  EXPECT_EQ(g.num_edges(), 2);

  // Weighted: first occurrence wins, in either endpoint order.
  std::stringstream weighted("0 1 2.5\n1 0 9.0\n1 2 4.0\n");
  const WeightedGraph wg = read_weighted_edge_list(weighted);
  ASSERT_EQ(wg.edges.size(), 2u);
  EXPECT_DOUBLE_EQ(wg.edges[0].w, 2.5);
  EXPECT_DOUBLE_EQ(wg.edges[1].w, 4.0);

  // DIMACS deduplicates too; the declared count refers to the edge lines.
  std::stringstream dimacs("p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n");
  const Graph gd = read_dimacs(dimacs);
  EXPECT_EQ(gd.num_edges(), 2);
}

TEST(GraphIo, UndersizedDeclaredHeaderRejected) {
  // Declaring fewer vertices than the ids in use used to silently enlarge
  // the graph; it is now a hard error in both edge-list readers.
  std::stringstream plain("# vertices 3\n0 1\n2 5\n");
  EXPECT_THROW((void)read_edge_list(plain), std::invalid_argument);
  std::stringstream weighted("# vertices 2\n0 4 1.0\n");
  EXPECT_THROW((void)read_weighted_edge_list(weighted), std::invalid_argument);
  // An exactly-sized or oversized header still works.
  std::stringstream exact("# vertices 6\n0 1\n2 5\n");
  EXPECT_EQ(read_edge_list(exact).num_vertices(), 6);
}

TEST(GraphIo, VertexIdsAndCountsPastInt32Rejected) {
  // Ids and counts are range-checked before the cast to Vertex; each of
  // these used to be read silently as a different graph or to overflow.
  const auto expect_rejected = [](auto read, const char* text) {
    std::stringstream in(text);
    try {
      (void)read(in);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
          << "message names no line: " << e.what();
    }
  };
  const auto plain = [](std::istream& in) { return read_edge_list(in); };
  const auto weighted = [](std::istream& in) {
    return read_weighted_edge_list(in);
  };
  const auto dimacs = [](std::istream& in) { return read_dimacs(in); };
  expect_rejected(plain, "0 4294967297\n");                // read as {0, 1}
  expect_rejected(weighted, "0 4294967297 2.0\n");
  expect_rejected(plain, "# vertices 4294967298\n0 1\n");  // read as n = 2
  expect_rejected(plain, "# vertices 3000000000\n0 1\n");  // header ignored
  expect_rejected(dimacs, "p edge 4294967298 1\ne 1 2\n");  // read as n = 2
  expect_rejected(plain, "0 2147483647\n");  // max_id + 1 overflowed int32
}

// ---------------------------------------------------------------------------
// Augmenting-path diagnostics + independent certificate verification
// ---------------------------------------------------------------------------

TEST(Augmenting, ShortestPathLengthOnKnownInstances) {
  // Path 0-1-2-3, {1,2} matched: unique augmenting path has length 3.
  const Graph p4 = make_graph(4, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}});
  const auto side = bipartition(p4);
  ASSERT_TRUE(side.has_value());
  Matching m(4);
  m.add(1, 2);
  EXPECT_EQ(bipartite_shortest_augmenting_path_length(p4, *side, m), 3);
  m.remove_at(1);
  EXPECT_EQ(bipartite_shortest_augmenting_path_length(p4, *side, m), 1);
  // Maximum matching: no augmenting path.
  m = hopcroft_karp(p4);
  EXPECT_EQ(bipartite_shortest_augmenting_path_length(p4, *side, m), -1);
}

TEST(Augmenting, DeficitMatchesExact) {
  Rng rng(7);
  const Graph g = gen_random_graph(40, 120, rng);
  const Matching greedy = greedy_maximal_matching(g);
  EXPECT_EQ(augmenting_deficit(g, greedy),
            maximum_matching_size(g) - greedy.size());
}

class CertificateCrossCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CertificateCrossCheck, CertifiedRunsHaveNoShortAugmentingPath) {
  // Independent verification of Theorem B.4: after a certified run on a
  // bipartite graph, the exact shortest augmenting path must be longer than
  // l_max = 3/eps (or absent).
  Rng rng(GetParam());
  const Graph g = gen_random_bipartite(40, 40, 160, rng);
  const auto side = bipartition(g);
  ASSERT_TRUE(side.has_value());
  CoreConfig cfg;
  cfg.eps = 0.25;
  cfg.seed = GetParam();
  GreedyMatchingOracle oracle;
  const BoostResult r = boost_matching(g, oracle, cfg);
  if (!r.outcome.certified) GTEST_SKIP() << "run ended without certificate";
  const std::int64_t len =
      bipartite_shortest_augmenting_path_length(g, *side, r.matching);
  EXPECT_TRUE(len == -1 || len > cfg.ell_max())
      << "certificate violated: augmenting path of length " << len;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertificateCrossCheck,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(CertificateCrossCheck, StreamingCertificateAlsoVerified) {
  Rng rng(11);
  const Graph g = gen_random_bipartite(35, 35, 140, rng);
  const auto side = bipartition(g);
  ASSERT_TRUE(side.has_value());
  CoreConfig cfg;
  cfg.eps = 0.2;
  const StreamingResult r = streaming_matching(g, cfg);
  if (r.outcome.certified) {
    const std::int64_t len =
        bipartite_shortest_augmenting_path_length(g, *side, r.matching);
    EXPECT_TRUE(len == -1 || len > cfg.ell_max());
  }
}

// ---------------------------------------------------------------------------
// Incremental / decremental matchers
// ---------------------------------------------------------------------------

TEST(IncrementalMatcher, InsertOnlyStreamStaysApproximate) {
  const Vertex n = 60;
  MatrixWeakOracle oracle(n);
  DynamicMatcherConfig cfg;
  cfg.eps = 0.25;
  IncrementalMatcher inc(n, oracle, cfg);
  Rng rng(3);
  const auto updates = dyn_random_updates(n, 250, 1.0, rng);
  for (const EdgeUpdate& up : updates) inc.insert(up.u, up.v);
  const Graph snapshot = inc.graph().snapshot();
  EXPECT_TRUE(inc.matching().is_valid_in(snapshot));
  EXPECT_GE(static_cast<double>(inc.matching().size()) * 1.25,
            static_cast<double>(maximum_matching_size(snapshot)));
  EXPECT_GT(inc.rebuilds(), 0);
}

TEST(DecrementalMatcher, DeleteOnlyStreamKeepsMaximalFloor) {
  Rng rng(5);
  const Graph g = gen_random_graph(50, 200, rng);
  MatrixWeakOracle oracle(g.num_vertices());
  DynamicMatcherConfig cfg;
  cfg.eps = 0.25;
  DecrementalMatcher dec(g, oracle, cfg);
  EXPECT_EQ(dec.graph().num_edges(), g.num_edges());
  EXPECT_THROW(dec.erase(0, 0), std::invalid_argument);

  std::vector<Edge> edges(g.edges().begin(), g.edges().end());
  Rng order(7);
  order.shuffle(edges);
  std::int64_t step = 0;
  for (const Edge& e : edges) {
    dec.erase(e.u, e.v);
    if (++step % 40 == 0) {
      const Graph snapshot = dec.graph().snapshot();
      ASSERT_TRUE(dec.matching().is_valid_in(snapshot));
      ASSERT_TRUE(dec.matching().is_maximal_in(snapshot));
    }
  }
  EXPECT_EQ(dec.graph().num_edges(), 0);
  EXPECT_EQ(dec.matching().size(), 0);
  EXPECT_EQ(dec.updates(), g.num_edges());
}

}  // namespace
}  // namespace bmf
