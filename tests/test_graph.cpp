#include <gtest/gtest.h>

#include <algorithm>

#include "graph/bit_matrix.hpp"
#include "graph/dyn_graph.hpp"
#include "graph/graph.hpp"
#include "workloads/gen.hpp"

namespace bmf {
namespace {

TEST(Graph, BuildDeduplicatesAndDropsLoops) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 0);  // duplicate
  b.add_edge(2, 2);  // loop
  b.add_edge(2, 3);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(3, 2));
  EXPECT_FALSE(g.has_edge(2, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, DegreesAndNeighbors) {
  const Graph g = make_graph(5, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {3, 4}});
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(g.degree(4), 1);
  EXPECT_EQ(g.max_degree(), 3);
  auto nb = g.neighbors(0);
  std::vector<Vertex> v(nb.begin(), nb.end());
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<Vertex>{1, 2, 3}));
}

TEST(Graph, InducedSubgraph) {
  const Graph g = make_graph(4, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}});
  const std::vector<std::uint8_t> keep{1, 1, 0, 1};
  const Graph sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.num_edges(), 1);
  EXPECT_TRUE(sub.has_edge(0, 1));
  EXPECT_FALSE(sub.has_edge(2, 3));
}

TEST(Graph, AdjacencySymmetry) {
  Rng rng(17);
  const Graph g = gen_random_graph(50, 200, rng);
  for (const Edge& e : g.edges()) {
    auto nu = g.neighbors(e.u);
    auto nv = g.neighbors(e.v);
    EXPECT_NE(std::find(nu.begin(), nu.end(), e.v), nu.end());
    EXPECT_NE(std::find(nv.begin(), nv.end(), e.u), nv.end());
  }
}

TEST(DynGraph, InsertEraseRoundtrip) {
  DynGraph g(5);
  EXPECT_TRUE(g.insert(0, 1));
  EXPECT_FALSE(g.insert(1, 0));  // duplicate
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.erase(0, 1));
  EXPECT_FALSE(g.erase(0, 1));
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(DynGraph, SnapshotMatchesState) {
  DynGraph g(6);
  g.insert(0, 1);
  g.insert(2, 3);
  g.insert(4, 5);
  g.erase(2, 3);
  const Graph s = g.snapshot();
  EXPECT_EQ(s.num_edges(), 2);
  EXPECT_TRUE(s.has_edge(0, 1));
  EXPECT_FALSE(s.has_edge(2, 3));
}

TEST(DynGraph, NeighborsAreSortedAscending) {
  DynGraph g(8);
  for (Vertex v : {5, 2, 7, 1, 6}) g.insert(3, v);
  g.erase(3, 6);
  const auto nb = g.neighbors(3);
  const std::vector<Vertex> want{1, 2, 5, 7};
  ASSERT_EQ(nb.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(nb[i], want[i]);
}

TEST(DynGraph, SnapshotOrderIsInsertionOrderIndependent) {
  // Pin the determinism fix: the same edge set inserted in any order (here a
  // seeded shuffle) must snapshot to the exact same edge sequence — sorted
  // lexicographically with u < v — so seeded downstream runs reproduce across
  // platforms and standard libraries.
  Rng rng(17);
  std::vector<Edge> edges;
  for (Vertex u = 0; u < 12; ++u)
    for (Vertex v = u + 1; v < 12; ++v)
      if (rng.next_bool(0.4)) edges.push_back({u, v});
  ASSERT_GT(edges.size(), 10u);

  std::vector<Edge> shuffled = edges;
  rng.shuffle(shuffled);
  ASSERT_NE(shuffled, edges);  // the shuffle actually moved something

  DynGraph g(12);
  for (const Edge& e : shuffled) g.insert(e.u, e.v);
  const Graph s = g.snapshot();
  ASSERT_EQ(s.num_edges(), static_cast<std::int64_t>(edges.size()));
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(s.edges()[i].u, edges[i].u) << "position " << i;
    EXPECT_EQ(s.edges()[i].v, edges[i].v) << "position " << i;
  }
}

TEST(BitVec, SetGetPopcount) {
  BitVec v(130);
  v.set(0);
  v.set(64);
  v.set(129);
  EXPECT_TRUE(v.get(64));
  EXPECT_FALSE(v.get(63));
  EXPECT_EQ(v.popcount(), 3);
  EXPECT_EQ(v.first_set(), 0);
  v.set(0, false);
  EXPECT_EQ(v.first_set(), 64);
}

TEST(BitVec, FirstCommon) {
  BitVec a(100), b(100);
  a.set(3);
  a.set(70);
  b.set(70);
  b.set(99);
  EXPECT_EQ(a.first_common(b), 70);
  b.set(70, false);
  EXPECT_EQ(a.first_common(b), -1);
}

TEST(BitMatrix, MultiplyMatchesNaive) {
  Rng rng(23);
  const std::int64_t n = 90;
  BitMatrix m(n, n);
  std::vector<std::vector<bool>> ref(n, std::vector<bool>(n, false));
  for (int i = 0; i < 400; ++i) {
    const auto r = static_cast<std::int64_t>(rng.next_below(n));
    const auto c = static_cast<std::int64_t>(rng.next_below(n));
    m.set(r, c);
    ref[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] = true;
  }
  BitVec v(n), out(n);
  for (int i = 0; i < 30; ++i) v.set(static_cast<std::int64_t>(rng.next_below(n)));
  m.multiply(v, out);
  for (std::int64_t r = 0; r < n; ++r) {
    bool expect = false;
    for (std::int64_t c = 0; c < n; ++c)
      expect |=
          ref[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] && v.get(c);
    EXPECT_EQ(out.get(r), expect) << "row " << r;
  }
}

TEST(BitMatrix, RowQueries) {
  BitMatrix m(4, 200);
  m.set(2, 150);
  m.set(2, 7);
  BitVec mask(200);
  mask.set(150);
  EXPECT_EQ(m.first_common_in_row(2, mask), 150);
  EXPECT_EQ(m.row_intersect_count(2, mask), 1);
  mask.set(7);
  EXPECT_EQ(m.first_common_in_row(2, mask), 7);
  EXPECT_EQ(m.row_intersect_count(2, mask), 2);
  EXPECT_EQ(m.first_common_in_row(0, mask), -1);
}

TEST(BitMatrix, CountedRowProbeReportsWordsActuallyScanned) {
  // 200 columns = 4 words per row. The probe early-exits at the first set
  // AND-word, so the reported scan count is position-dependent, not the
  // whole row.
  BitMatrix m(4, 200);
  m.set(2, 150);  // word 2
  m.set(2, 7);    // word 0
  BitVec mask(200);
  mask.set(150);
  std::int64_t words = 0;
  EXPECT_EQ(m.first_common_in_row(2, mask, &words), 150);
  EXPECT_EQ(words, 3);  // words 0, 1 empty; hit in word 2
  mask.set(7);
  EXPECT_EQ(m.first_common_in_row(2, mask, &words), 7);
  EXPECT_EQ(words, 1);  // hit in word 0
  EXPECT_EQ(m.first_common_in_row(0, mask, &words), -1);
  EXPECT_EQ(words, 4);  // full-row miss scans every word
}

TEST(BitMatrix, CountedMultiplyReportsPerRowEarlyExit) {
  // 130 columns = 3 words per row, 3 rows. Row 0 hits in its first word
  // (1 word), row 1 hits only in word 2 (3 words), row 2 misses (3 words).
  BitMatrix m(3, 130);
  m.set(0, 1);
  m.set(1, 129);
  BitVec v(130), out(3);
  v.set(1);
  v.set(129);
  std::int64_t words = 0;
  m.multiply(v, out, &words);
  EXPECT_TRUE(out.get(0));
  EXPECT_TRUE(out.get(1));
  EXPECT_FALSE(out.get(2));
  EXPECT_EQ(words, 1 + 3 + 3);
}

TEST(BitMatrix, FromGraphSymmetric) {
  const Graph g = make_graph(5, std::vector<Edge>{{0, 4}, {1, 2}});
  const BitMatrix m = BitMatrix::from_graph(g);
  EXPECT_TRUE(m.get(0, 4));
  EXPECT_TRUE(m.get(4, 0));
  EXPECT_TRUE(m.get(2, 1));
  EXPECT_FALSE(m.get(0, 1));
}

class GeneratorTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorTest, RandomGraphHasRequestedEdges) {
  Rng rng(GetParam());
  const Graph g = gen_random_graph(40, 100, rng);
  EXPECT_EQ(g.num_vertices(), 40);
  EXPECT_EQ(g.num_edges(), 100);
}

TEST_P(GeneratorTest, BipartiteIsBipartite) {
  Rng rng(GetParam());
  const Graph g = gen_random_bipartite(20, 25, 80, rng);
  for (const Edge& e : g.edges()) {
    EXPECT_LT(e.u, 20);
    EXPECT_GE(e.v, 20);
  }
}

TEST_P(GeneratorTest, PlantedMatchingHasPerfectMatching) {
  Rng rng(GetParam());
  const Graph g = gen_planted_matching(30, 40, rng);
  EXPECT_EQ(g.num_vertices(), 30);
  EXPECT_GE(g.num_edges(), 15);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorTest, ::testing::Values(1, 2, 3, 7, 99));

TEST(Generators, DisjointPathsShape) {
  const Graph g = gen_disjoint_paths(3, 4);
  EXPECT_EQ(g.num_vertices(), 15);
  EXPECT_EQ(g.num_edges(), 12);
  EXPECT_EQ(g.max_degree(), 2);
}

TEST(Generators, OddCyclesShape) {
  const Graph g = gen_odd_cycles(2, 5);
  EXPECT_EQ(g.num_vertices(), 10);
  EXPECT_EQ(g.num_edges(), 10);
  EXPECT_EQ(g.max_degree(), 2);
}

TEST(Generators, CliquePairShape) {
  const Graph g = gen_clique_pair(4);
  EXPECT_EQ(g.num_vertices(), 8);
  // Two K4s (6 edges each) plus the cross matching (4 edges).
  EXPECT_EQ(g.num_edges(), 16);
}

}  // namespace
}  // namespace bmf
