#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "dynamic/weak_oracle.hpp"
#include "omv/omv_weak.hpp"
#include "workloads/gen.hpp"

namespace bmf {
namespace {

std::vector<Vertex> random_subset(Vertex n, double p, Rng& rng) {
  std::vector<Vertex> s;
  for (Vertex v = 0; v < n; ++v)
    if (rng.next_bool(p)) s.push_back(v);
  return s;
}

class WeakOracleProps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WeakOracleProps, QueryIsMaximalInInducedSubgraph) {
  Rng rng(GetParam());
  const Graph g = gen_random_graph(60, 240, rng);
  MatrixWeakOracle oracle = MatrixWeakOracle::from_graph(g);
  const auto s = random_subset(60, 0.5, rng);
  const WeakQueryResult res = oracle.query(s, 0.0);

  std::vector<std::uint8_t> in_s(60, 0), matched(60, 0);
  for (Vertex v : s) in_s[static_cast<std::size_t>(v)] = 1;
  for (const Edge& e : res.matching) {
    ASSERT_TRUE(in_s[static_cast<std::size_t>(e.u)]);
    ASSERT_TRUE(in_s[static_cast<std::size_t>(e.v)]);
    ASSERT_TRUE(g.has_edge(e.u, e.v));
    ASSERT_FALSE(matched[static_cast<std::size_t>(e.u)]);
    ASSERT_FALSE(matched[static_cast<std::size_t>(e.v)]);
    matched[static_cast<std::size_t>(e.u)] = 1;
    matched[static_cast<std::size_t>(e.v)] = 1;
  }
  // Maximality: no G[S]-edge joins two unmatched S-vertices.
  for (const Edge& e : g.edges()) {
    if (!in_s[static_cast<std::size_t>(e.u)] || !in_s[static_cast<std::size_t>(e.v)])
      continue;
    EXPECT_TRUE(matched[static_cast<std::size_t>(e.u)] ||
                matched[static_cast<std::size_t>(e.v)])
        << "uncovered edge " << e.u << "-" << e.v;
  }
}

TEST_P(WeakOracleProps, CoverQueryIsMaximalBipartite) {
  Rng rng(GetParam() + 40);
  const Graph g = gen_random_graph(50, 200, rng);
  MatrixWeakOracle oracle = MatrixWeakOracle::from_graph(g);
  const auto plus = random_subset(50, 0.4, rng);
  const auto minus = random_subset(50, 0.4, rng);
  const WeakQueryResult res = oracle.query_cover(plus, minus, 0.0);

  std::vector<std::uint8_t> used_plus(50, 0), used_minus(50, 0), in_plus(50, 0),
      in_minus(50, 0);
  for (Vertex v : plus) in_plus[static_cast<std::size_t>(v)] = 1;
  for (Vertex v : minus) in_minus[static_cast<std::size_t>(v)] = 1;
  for (const Edge& e : res.matching) {
    ASSERT_TRUE(in_plus[static_cast<std::size_t>(e.u)]);
    ASSERT_TRUE(in_minus[static_cast<std::size_t>(e.v)]);
    ASSERT_TRUE(g.has_edge(e.u, e.v));
    ASSERT_FALSE(used_plus[static_cast<std::size_t>(e.u)]);
    ASSERT_FALSE(used_minus[static_cast<std::size_t>(e.v)]);
    used_plus[static_cast<std::size_t>(e.u)] = 1;
    used_minus[static_cast<std::size_t>(e.v)] = 1;
  }
  // Maximality in B[S+ u S-]: no (u+, v-) with both copies unused.
  for (Vertex u = 0; u < 50; ++u) {
    if (!in_plus[static_cast<std::size_t>(u)] || used_plus[static_cast<std::size_t>(u)])
      continue;
    for (Vertex v : g.neighbors(u)) {
      if (in_minus[static_cast<std::size_t>(v)]) {
        EXPECT_TRUE(used_minus[static_cast<std::size_t>(v)])
            << "uncovered B-edge (" << u << "+, " << v << "-)";
      }
    }
  }
}

TEST_P(WeakOracleProps, MatrixAndOMvOraclesAgreeOnCoverQueries) {
  // Both implement greedy maximal over the same row order, so their cover
  // matchings coincide exactly.
  Rng rng(GetParam() + 80);
  const Graph g = gen_random_graph(40, 160, rng);
  MatrixWeakOracle a = MatrixWeakOracle::from_graph(g);
  OMvWeakOracle b = OMvWeakOracle::from_graph(g);
  const auto plus = random_subset(40, 0.5, rng);
  const auto minus = random_subset(40, 0.5, rng);
  const auto ra = a.query_cover(plus, minus, 0.0);
  const auto rb = b.query_cover(plus, minus, 0.0);
  ASSERT_EQ(ra.matching.size(), rb.matching.size());
  for (std::size_t i = 0; i < ra.matching.size(); ++i) {
    EXPECT_EQ(ra.matching[i].u, rb.matching[i].u);
    EXPECT_EQ(ra.matching[i].v, rb.matching[i].v);
  }
}

TEST(WeakOracleCostAccounting, HandCountedWordsTouchedFixture) {
  // n = 130 -> 3 words per row. Edges: {0,1}, {0,128}, {2,128}.
  MatrixWeakOracle oracle(130);
  oracle.on_insert(0, 1);
  oracle.on_insert(0, 128);
  oracle.on_insert(2, 128);

  // query({0,1,2,3}): u=0 probes against avail {0,1,2,3} and hits bit 1 in
  // word 0 -> 1 word, matches (0,1); u=1 is consumed -> no probe, 0 words;
  // u=2's only neighbor 128 is not in avail {2,3} -> full 3-word miss;
  // u=3 has an empty row -> full 3-word miss. Total: 1 + 0 + 3 + 3 = 7.
  const std::vector<Vertex> s{0, 1, 2, 3};
  const auto res = oracle.query(s, 0.0);
  ASSERT_EQ(res.matching.size(), 1u);
  EXPECT_EQ(res.matching[0].u, 0);
  EXPECT_EQ(res.matching[0].v, 1);
  EXPECT_EQ(oracle.words_touched(), 7);

  // query_cover({0,2}, {1,3}): 0+ hits 1- in word 0 -> 1 word; 2+'s only
  // neighbor 128 is not in {3} -> 3-word miss. Total 4 more.
  const auto cover = oracle.query_cover(std::vector<Vertex>{0, 2},
                                        std::vector<Vertex>{1, 3}, 0.0);
  ASSERT_EQ(cover.matching.size(), 1u);
  EXPECT_EQ(oracle.words_touched(), 11);

  // The pre-fix accounting charged ceil(130/64) = 3 words per probe
  // (3 + 3 + 3 = 9 for the first query): pin that the overcount is gone.
  MatrixWeakOracle recount(130);
  recount.on_insert(0, 1);
  (void)recount.query(s, 0.0);  // u=0: 1 word; u=2, u=3: 3-word misses
  EXPECT_EQ(recount.words_touched(), 7);
}

TEST_P(WeakOracleProps, WordsTouchedGrowsWithQueries) {
  Rng rng(GetParam() + 120);
  const Graph g = gen_random_graph(64, 128, rng);
  MatrixWeakOracle oracle = MatrixWeakOracle::from_graph(g);
  const auto s = random_subset(64, 0.5, rng);
  const std::int64_t before = oracle.words_touched();
  (void)oracle.query(s, 0.0);
  const std::int64_t after_one = oracle.words_touched();
  EXPECT_GT(after_one, before);
  (void)oracle.query(s, 0.0);
  EXPECT_GT(oracle.words_touched(), after_one);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeakOracleProps, ::testing::Values(1, 2, 3, 5, 8));

TEST(WeakOracleEdgeCases, EmptySubsetAndSingleton) {
  const Graph g = make_graph(4, std::vector<Edge>{{0, 1}});
  MatrixWeakOracle oracle = MatrixWeakOracle::from_graph(g);
  EXPECT_TRUE(oracle.query(std::vector<Vertex>{}, 0.0).matching.empty());
  EXPECT_TRUE(oracle.query(std::vector<Vertex>{0}, 0.0).matching.empty());
  EXPECT_TRUE(oracle.query_cover(std::vector<Vertex>{0}, std::vector<Vertex>{},
                                 0.0)
                  .matching.empty());
}

TEST(WeakOracleEdgeCases, CoverAllowsBothCopiesOfSameVertex) {
  // S+ = S- = {0, 1} with edge {0,1}: the cover matching can use (0+, 1-)
  // while 1+ can still probe, but 0- is taken; result has exactly one pair
  // per available minus copy.
  const Graph g = make_graph(2, std::vector<Edge>{{0, 1}});
  MatrixWeakOracle oracle = MatrixWeakOracle::from_graph(g);
  const std::vector<Vertex> s{0, 1};
  const auto res = oracle.query_cover(s, s, 0.0);
  EXPECT_EQ(res.matching.size(), 2u);  // (0+,1-) and (1+,0-)
}

// WeakOracle::on_batch keeps its default serial body only because
// perfbench/src/decorators.hpp overrides it; this pins that default.

/// A randomized update batch whose `structural` flags mark exactly the
/// updates that toggle edge presence given earlier batch members, mixing
/// structural and non-structural entries: duplicate inserts, deletes of
/// absent edges, and same-edge toggles within one batch.
struct FlaggedBatch {
  std::vector<EdgeUpdate> updates;
  std::vector<std::uint8_t> structural;
};

FlaggedBatch random_flagged_batch(Vertex n, std::size_t count, Rng& rng) {
  FlaggedBatch b;
  std::unordered_set<std::uint64_t> present;  // evolving presence under replay
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
    auto v = static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n - 1)));
    if (v >= u) ++v;
    const bool ins = rng.next_bool(0.6);
    const std::uint64_t key = edge_key(u, v);
    // Structural iff the update toggles presence: insert of an absent edge
    // or delete of a present one.
    const bool toggles = ins != present.contains(key);
    b.updates.push_back(ins ? EdgeUpdate::ins(u, v) : EdgeUpdate::del(u, v));
    if (toggles) {
      b.structural.push_back(1);
      if (ins)
        present.insert(key);
      else
        present.erase(key);
    } else {
      b.structural.push_back(0);
    }
  }
  return b;
}

class WeakOracleOnBatch : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WeakOracleOnBatch, MatrixOracleBatchEqualsSerialInsertEraseLoop) {
  Rng rng(GetParam());
  const Vertex n = 48;
  const FlaggedBatch b = random_flagged_batch(n, 160, rng);

  MatrixWeakOracle want(n);
  for (std::size_t i = 0; i < b.updates.size(); ++i) {
    if (!b.structural[i]) continue;
    if (b.updates[i].insert)
      want.on_insert(b.updates[i].u, b.updates[i].v);
    else
      want.on_erase(b.updates[i].u, b.updates[i].v);
  }

  for (const int threads : {1, 2, 8}) {
    MatrixWeakOracle got(n);
    got.on_batch(b.updates, b.structural, threads);
    for (Vertex u = 0; u < n; ++u)
      for (Vertex v = 0; v < n; ++v)
        ASSERT_EQ(got.adjacency().get(u, v), want.adjacency().get(u, v))
            << "threads=" << threads << " bit (" << u << ", " << v << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeakOracleOnBatch, ::testing::Values(1u, 2u, 3u));

TEST(WeakOracleCostAccounting, RowsQueriedCountsTheProbedSide) {
  // rows_queried() adds |S| per query and |S+| per cover query, whatever the
  // answers; it prices the rebuild-side query gathers of CommStats.
  MatrixWeakOracle oracle(6);
  oracle.on_insert(0, 1);
  EXPECT_EQ(oracle.rows_queried(), 0);
  (void)oracle.query(std::vector<Vertex>{0, 1, 2}, 0.0);
  EXPECT_EQ(oracle.rows_queried(), 3);
  (void)oracle.query_cover(std::vector<Vertex>{4, 5}, std::vector<Vertex>{0, 1, 2, 3},
                           0.0);
  EXPECT_EQ(oracle.rows_queried(), 5);
  (void)oracle.query(std::vector<Vertex>{}, 0.0);
  EXPECT_EQ(oracle.rows_queried(), 5);
  EXPECT_EQ(oracle.calls(), 3);
}

}  // namespace
}  // namespace bmf
