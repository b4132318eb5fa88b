#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "certificate_util.hpp"
#include "core/framework.hpp"
#include "dynamic/partial_dynamic.hpp"
#include "dynamic/static_weak.hpp"
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

// `read` must reject `text` with a std::invalid_argument that names a line.
template <typename Read>
void expect_rejected(Read read, const char* text) {
  std::stringstream in(text);
  try {
    (void)read(in);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
        << "message names no line: " << e.what();
  }
}

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
  // A weight token must parse completely as a finite positive number; the
  // first four used to load as weight 1.0 and "2.5x" as 2.5.
  const auto weighted = [](std::istream& in) {
    return read_weighted_edge_list(in);
  };
  for (const char* text :
       {"0 1 abc\n", "0 1 nan\n", "0 1 inf\n", "0 1 1e400\n", "0 1 2.5x\n"})
    expect_rejected(weighted, text);
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
  // A second problem line used to redefine n: a growing one silently, a
  // shrinking one only inside GraphBuilder, with a message naming no line.
  const auto dimacs = [](std::istream& in) { return read_dimacs(in); };
  expect_rejected(dimacs, "p edge 2 1\ne 1 2\np edge 9 1\n");
  expect_rejected(dimacs, "p edge 9 1\ne 1 9\np edge 2 1\n");
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

using testcert::has_short_augmenting_path;

TEST(CertificateCrossCheck, BruteForceCheckerAgreesWithBerge) {
  // With no length bound the checker finds a path iff M is not maximum.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Vertex n = 8 + static_cast<Vertex>(seed % 9);
    const Graph g = gen_random_graph(n, 2 * n, rng);
    Matching m = greedy_maximal_matching(g);
    if (seed % 2 == 0 && m.size() > 0) m.remove_at(m.edge_list().front().u);
    EXPECT_EQ(has_short_augmenting_path(g, m, n), augmenting_deficit(g, m) > 0)
        << "seed=" << seed;
  }
  // A flower: stem 7 - 6 = 0 into the 5-cycle 0 - 1 = 2 - 3 = 4 - 0, and the
  // free 8 hangs at 4. The only augmenting path, 7 - 6 = 0 - 1 = 2 - 3 = 4 - 8
  // (7 edges), goes round the blossom; an alternating BFS that ignores
  // blossoms reaches 4 only through 0 - 4, on the side that cannot leave it
  // by an unmatched edge, and misses it.
  const Graph flower = make_graph(9, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4},
                                                       {4, 0}, {6, 0}, {7, 6}, {4, 8}});
  Matching fm(9);
  fm.add(0, 6);
  fm.add(1, 2);
  fm.add(3, 4);
  EXPECT_FALSE(has_short_augmenting_path(flower, fm, 6));
  EXPECT_TRUE(has_short_augmenting_path(flower, fm, 7));
}

TEST(CertificateCrossCheck, GeneralGraphCertificatesHaveNoShortAugmentingPath) {
  // Theorem B.4 on non-bipartite graphs: a certified run leaves no
  // augmenting path of length <= l_max = ceil(3/eps), blossoms included.
  std::vector<Graph> graphs;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const Vertex n = 11 + static_cast<Vertex>(seed % 10);  // 11 .. 20
    graphs.push_back(gen_random_graph(n, 3 * n, rng));
  }
  graphs.push_back(gen_odd_cycles(3, 5));
  graphs.push_back(gen_odd_cycles(2, 9));
  int certified = 0;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    for (const double eps : {1.0, 0.5}) {
      CoreConfig cfg;
      cfg.eps = eps;
      cfg.seed = i + 1;
      const int lmax = cfg.ell_max();
      const auto audit = [&](const char* who, const Matching& m, bool is_certified) {
        ASSERT_TRUE(m.is_valid_in(g));
        if (!is_certified) return;
        ++certified;
        EXPECT_FALSE(has_short_augmenting_path(g, m, lmax))
            << who << " graph " << i << " eps=" << eps
            << ": certified with an augmenting path of length <= " << lmax;
      };
      {
        GreedyMatchingOracle oracle;
        const BoostResult r = boost_matching(g, oracle, cfg);
        audit("boost greedy", r.matching, r.outcome.certified);
      }
      {
        RandomGreedyMatchingOracle oracle(i + 1);
        const BoostResult r = boost_matching(g, oracle, cfg);
        audit("boost random-greedy", r.matching, r.outcome.certified);
      }
      {
        MatrixWeakOracle oracle = MatrixWeakOracle::from_graph(g);
        WeakSimConfig wcfg;
        wcfg.core = cfg;
        const WeakBoostResult r = static_weak_matching(g, oracle, wcfg);
        audit("static_weak", r.matching, r.outcome.certified);
      }
    }
  }
  EXPECT_GT(certified, 0);
}

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
