#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "certificate_util.hpp"
#include "dynamic/bipartite_cover.hpp"
#include "dynamic/dynamic_matcher.hpp"
#include "dynamic/static_weak.hpp"
#include "dynamic/weak_oracle.hpp"
#include "matching/blossom_exact.hpp"
#include "matching/hopcroft_karp.hpp"
#include "workloads/dyn_workload.hpp"
#include "workloads/gen.hpp"

namespace bmf {
namespace {

TEST(MatrixWeakOracle, FindsMaximalMatchingInInducedSubgraph) {
  const Graph g =
      make_graph(6, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  MatrixWeakOracle oracle = MatrixWeakOracle::from_graph(g);
  const std::vector<Vertex> s{0, 1, 3, 4};
  const WeakQueryResult res = oracle.query(s, 0.0);
  // G[S] has edges {0,1} and {3,4}; greedy must find both.
  EXPECT_EQ(res.matching.size(), 2u);
  EXPECT_FALSE(res.bottom);
  for (const Edge& e : res.matching) {
    EXPECT_TRUE(g.has_edge(e.u, e.v));
    for (Vertex x : {e.u, e.v})
      EXPECT_NE(std::find(s.begin(), s.end(), x), s.end());
  }
}

TEST(MatrixWeakOracle, BottomWhenBelowThreshold) {
  const Graph g = make_graph(10, std::vector<Edge>{{0, 1}});
  MatrixWeakOracle oracle = MatrixWeakOracle::from_graph(g);
  const std::vector<Vertex> s{0, 1, 2, 3};
  // lambda*delta*n = 0.5 * 0.5 * 10 = 2.5 > 1 found.
  EXPECT_TRUE(oracle.query(s, 0.5).bottom);
  EXPECT_FALSE(oracle.query(s, 0.01).bottom);
}

TEST(MatrixWeakOracle, Definition61Contract) {
  // If mu(G[S]) >= delta*n then no bottom: greedy maximal is a 2-approx, so
  // with lambda = 1/2 the threshold is always met in that regime.
  Rng rng(3);
  const Graph g = gen_planted_matching(40, 60, rng);
  MatrixWeakOracle oracle = MatrixWeakOracle::from_graph(g);
  std::vector<Vertex> all(40);
  for (Vertex v = 0; v < 40; ++v) all[static_cast<std::size_t>(v)] = v;
  const double delta = 0.5;  // mu = 20 = delta*n
  EXPECT_FALSE(oracle.query(all, delta).bottom);
}

TEST(MatrixWeakOracle, DynamicUpdatesTracked) {
  MatrixWeakOracle oracle(4);
  oracle.on_insert(0, 1);
  EXPECT_EQ(oracle.query(std::vector<Vertex>{0, 1}, 0.0).matching.size(), 1u);
  oracle.on_erase(0, 1);
  EXPECT_TRUE(oracle.query(std::vector<Vertex>{0, 1}, 0.0).matching.empty());
}

TEST(MatrixWeakOracle, CoverQueryAvoidsInnerInnerEdges) {
  const Graph g = make_graph(4, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}});
  MatrixWeakOracle oracle = MatrixWeakOracle::from_graph(g);
  // Outer copies {0, 2}, inner copies {1, 3}: edges (0+,1-), (2+,1-), (2+,3-).
  const std::vector<Vertex> plus{0, 2}, minus{1, 3};
  const WeakQueryResult res = oracle.query_cover(plus, minus, 0.0);
  EXPECT_EQ(res.matching.size(), 2u);  // (0+,1-) and (2+,3-)
  for (const Edge& e : res.matching) EXPECT_TRUE(g.has_edge(e.u, e.v));
}

TEST(BipartiteCover, CoverGraphStructure) {
  const Graph g = make_graph(3, std::vector<Edge>{{0, 1}, {1, 2}});
  const Graph b = build_bipartite_cover(g);
  EXPECT_EQ(b.num_vertices(), 6);
  EXPECT_EQ(b.num_edges(), 4);  // two B-edges per G-edge
  EXPECT_TRUE(b.has_edge(0, 1 + 3));
  EXPECT_TRUE(b.has_edge(1, 0 + 3));
  EXPECT_FALSE(b.has_edge(0, 2 + 3));
  ASSERT_TRUE(bipartition(b).has_value());
}

TEST(BipartiteCover, CoverMatchingAtLeastGraphMatching) {
  // Lemma 7.8 first part: mu(G) <= mu(B).
  Rng rng(11);
  for (int i = 0; i < 5; ++i) {
    const Graph g = gen_random_graph(24, 60, rng);
    const Graph b = build_bipartite_cover(g);
    EXPECT_GE(hopcroft_karp(b).size(), maximum_matching_size(g));
  }
}

class CoverTransferTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoverTransferTest, TransferLosesAtMostFactorSix) {
  Rng rng(GetParam());
  const Graph g = gen_random_graph(40, 120, rng);
  MatrixWeakOracle oracle = MatrixWeakOracle::from_graph(g);
  std::vector<Vertex> all(40);
  for (Vertex v = 0; v < 40; ++v) all[static_cast<std::size_t>(v)] = v;
  const WeakQueryResult cover = oracle.query_cover(all, all, 0.0);
  const std::vector<Edge> transferred =
      cover_matching_to_graph_matching(40, cover.matching);
  // Validity: a matching in G.
  Matching m(40);
  for (const Edge& e : transferred) {
    EXPECT_TRUE(g.has_edge(e.u, e.v));
    m.add(e.u, e.v);  // add() asserts disjointness
  }
  // Lemma 7.8: size >= |M_B| / 6.
  EXPECT_GE(6 * static_cast<std::int64_t>(transferred.size()),
            static_cast<std::int64_t>(cover.matching.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverTransferTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(WeakInitialMatching, Lemma67CallBound) {
  Rng rng(5);
  const Graph g = gen_random_graph(100, 400, rng);
  MatrixWeakOracle oracle = MatrixWeakOracle::from_graph(g);
  WeakSimConfig cfg;
  const Matching m = weak_initial_matching(100, oracle, cfg);
  EXPECT_TRUE(m.is_valid_in(g));
  EXPECT_TRUE(m.is_maximal_in(g));
  // Greedy-maximal A_weak exhausts the free set in one productive call.
  EXPECT_LE(oracle.calls(), 3);
}

void expect_weak_boosted(const Graph& g, double eps, std::uint64_t seed) {
  MatrixWeakOracle oracle = MatrixWeakOracle::from_graph(g);
  WeakSimConfig cfg;
  cfg.core.eps = eps;
  cfg.core.seed = seed;
  const WeakBoostResult r = static_weak_matching(g, oracle, cfg);
  ASSERT_TRUE(r.matching.is_valid_in(g));
  const std::int64_t mu = maximum_matching_size(g);
  EXPECT_GE(static_cast<double>(r.matching.size()) * (1.0 + eps),
            static_cast<double>(mu))
      << "eps=" << eps << " seed=" << seed;
  EXPECT_GT(r.weak_calls, 0);
}

class StaticWeakTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StaticWeakTest, RandomGraphs) {
  Rng rng(GetParam());
  expect_weak_boosted(gen_random_graph(90, 270, rng), 0.25, GetParam());
}

TEST_P(StaticWeakTest, PlantedMatchings) {
  Rng rng(GetParam() + 50);
  expect_weak_boosted(gen_planted_matching(80, 120, rng), 0.2, GetParam());
}

TEST_P(StaticWeakTest, ChainsAndCycles) {
  expect_weak_boosted(gen_augmenting_chains(5 + GetParam() % 4, 3), 0.25,
                      GetParam());
  expect_weak_boosted(gen_odd_cycles(4, 5 + 2 * (GetParam() % 3)), 0.25,
                      GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaticWeakTest, ::testing::Values(1, 2, 3));

TEST(StaticWeak, SampledOnlyModeStaysReasonable) {
  // Without the deterministic fallback the result is still a good
  // approximation w.h.p. (contaminated arcs are rare).
  Rng rng(9);
  const Graph g = gen_planted_matching(60, 90, rng);
  MatrixWeakOracle oracle = MatrixWeakOracle::from_graph(g);
  WeakSimConfig cfg;
  cfg.core.eps = 0.25;
  cfg.exhaustive_fallback = false;
  cfg.sample_patience = 8;
  const WeakBoostResult r = static_weak_matching(g, oracle, cfg);
  EXPECT_TRUE(r.matching.is_valid_in(g));
  EXPECT_GE(static_cast<double>(r.matching.size()) * 1.6,
            static_cast<double>(maximum_matching_size(g)));
  EXPECT_GT(r.sampled_iterations, 0);
}

TEST(DynamicMatcher, InsertOnlySequenceStaysApproximate) {
  const Vertex n = 60;
  MatrixWeakOracle oracle(n);
  DynamicMatcherConfig cfg;
  cfg.eps = 0.25;
  DynamicMatcher dm(n, oracle, cfg);
  Rng rng(3);
  const auto updates = dyn_random_updates(n, 300, 1.0, rng);
  for (const EdgeUpdate& up : updates) dm.apply(up);
  const Graph snapshot = dm.graph().snapshot();
  EXPECT_TRUE(dm.matching().is_valid_in(snapshot));
  EXPECT_GE(static_cast<double>(dm.matching().size()) * 1.25,
            static_cast<double>(maximum_matching_size(snapshot)));
  EXPECT_GT(dm.rebuilds(), 0);
}

class DynamicMatcherTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(DynamicMatcherTest, MixedUpdatesCheckedPeriodically) {
  const auto [seed, eps] = GetParam();
  const Vertex n = 50;
  MatrixWeakOracle oracle(n);
  DynamicMatcherConfig cfg;
  cfg.eps = eps;
  cfg.seed = seed;
  DynamicMatcher dm(n, oracle, cfg);
  Rng rng(seed);
  const auto updates = dyn_random_updates(n, 400, 0.7, rng);
  std::int64_t step = 0;
  for (const EdgeUpdate& up : updates) {
    dm.apply(up);
    if (++step % 50 == 0) {
      const Graph snapshot = dm.graph().snapshot();
      ASSERT_TRUE(dm.matching().is_valid_in(snapshot));
      const std::int64_t mu = maximum_matching_size(snapshot);
      // Between rebuilds the matching is maximal (2-approx floor) and the
      // rebuild schedule keeps it within (1+eps) right after each rebuild;
      // at check time the drift is bounded by the budget.
      EXPECT_GE(static_cast<double>(dm.matching().size()) * (1.0 + eps) +
                    std::max<double>(1.0, eps * static_cast<double>(mu) / 2.0),
                static_cast<double>(mu));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DynamicMatcherTest,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u),
                                            ::testing::Values(0.5, 0.25)));

TEST(DynamicMatcher, CertifiedRebuildsLeaveNoShortAugmentingPath) {
  // A rebuild that ends with the Theorem B.4 certificate promises that the
  // graph it rebuilt has no augmenting path of length <= l_max at the
  // rebuild's eps, which is eps / 2. Rebuilds run at the end of apply, so
  // after every apply that certified one, matching() and snapshot() are
  // exactly that rebuild's output and graph.
  int certified = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const double eps : {1.0, 0.5}) {
      const Vertex n = 12 + 2 * static_cast<Vertex>(seed);  // 14 .. 20
      DynamicMatcherConfig cfg;
      cfg.eps = eps;
      cfg.seed = seed;
      DynamicMatcher dm(n, cfg);
      CoreConfig rebuild_core;
      rebuild_core.eps = eps / 2.0;
      const int lmax = rebuild_core.ell_max();
      Rng rng(seed);
      std::int64_t step = 0;
      for (const EdgeUpdate& up : dyn_random_updates(n, 120, 0.7, rng)) {
        ++step;
        const std::int64_t before = dm.rebuild_stats().certified;
        dm.apply(up);
        if (dm.rebuild_stats().certified == before) continue;
        ++certified;
        const Graph snapshot = dm.snapshot();
        ASSERT_TRUE(dm.matching().is_valid_in(snapshot));
        EXPECT_FALSE(testcert::has_short_augmenting_path(snapshot, dm.matching(), lmax))
            << "seed=" << seed << " eps=" << eps << " update " << step
            << ": certified with an augmenting path of length <= " << lmax;
      }
    }
  }
  EXPECT_GT(certified, 0);
}

TEST(DynamicMatcher, DeleteMatchedEdgesKeepsMaximalFloor) {
  const Vertex n = 30;
  MatrixWeakOracle oracle(n);
  DynamicMatcherConfig cfg;
  cfg.eps = 0.5;
  cfg.rebuild_every = 1000000;  // effectively disable rebuilds
  DynamicMatcher dm(n, oracle, cfg);
  Rng rng(7);
  // Build a random graph, then delete every currently matched edge repeatedly.
  const auto inserts = dyn_random_updates(n, 120, 1.0, rng);
  for (const EdgeUpdate& up : inserts) dm.apply(up);
  for (int round = 0; round < 5; ++round) {
    const auto edges = dm.matching().edge_list();
    for (const Edge& e : edges)
      if (dm.graph().has_edge(e.u, e.v)) dm.erase(e.u, e.v);
    const Graph snapshot = dm.graph().snapshot();
    ASSERT_TRUE(dm.matching().is_valid_in(snapshot));
    ASSERT_TRUE(dm.matching().is_maximal_in(snapshot));
  }
}

TEST(Problem1, ChunkAndQueryDiscipline) {
  const Vertex n = 40;
  MatrixWeakOracle oracle(n);
  Problem1Instance p1(n, oracle, /*q=*/3, /*lambda=*/0.5, /*delta=*/0.01,
                      /*alpha=*/0.25);
  EXPECT_EQ(p1.chunk_size(), 10);
  EXPECT_THROW((void)p1.query(std::vector<Vertex>{0, 1}), std::invalid_argument);

  std::vector<EdgeUpdate> chunk;
  for (Vertex i = 0; i < 10; ++i)
    chunk.push_back(EdgeUpdate::ins(i, i + 10));
  p1.apply_chunk(chunk);
  EXPECT_EQ(p1.queries_left(), 3);
  std::vector<Vertex> s;
  for (Vertex v = 0; v < 20; ++v) s.push_back(v);
  const WeakQueryResult res = p1.query(s);
  EXPECT_EQ(res.matching.size(), 10u);
  (void)p1.query(s);
  (void)p1.query(s);
  EXPECT_THROW((void)p1.query(s), std::invalid_argument);

  // Wrong chunk size is rejected; empty updates are allowed.
  EXPECT_THROW(p1.apply_chunk(std::vector<EdgeUpdate>(3)), std::invalid_argument);
  std::vector<EdgeUpdate> lazy(10, EdgeUpdate::none());
  p1.apply_chunk(lazy);
  EXPECT_EQ(p1.queries_left(), 3);
}

TEST(Problem1, QueryRejectsVerticesOutsideTheGraphWithoutSpendingIt) {
  // A vertex outside [0, n) used to reach the oracle's bit vector after the
  // budget moved, and its range assert aborted the process.
  const Vertex n = 40;
  MatrixWeakOracle oracle(n);
  Problem1Instance p1(n, oracle, /*q=*/2, /*lambda=*/0.5, /*delta=*/0.01,
                      /*alpha=*/0.25);
  p1.apply_chunk(std::vector<EdgeUpdate>(10, EdgeUpdate::none()));
  for (const std::vector<Vertex>& s :
       {std::vector<Vertex>{0, n}, std::vector<Vertex>{0, -1}}) {
    EXPECT_THROW((void)p1.query(s), std::invalid_argument) << "vertex " << s[1];
    EXPECT_EQ(p1.queries_left(), 2);
  }
  EXPECT_EQ(oracle.calls(), 0);
  (void)p1.query(std::vector<Vertex>{0, n - 1});
  EXPECT_EQ(p1.queries_left(), 1);
}

TEST(Problem1, RejectsAlphaWithoutAChunkSize) {
  // alpha * n must be a finite chunk length that fits int64_t; it is checked
  // before the cast, which would otherwise be undefined behaviour.
  const Vertex n = 10;
  MatrixWeakOracle oracle(n);
  for (const double alpha : {1e30, 9.3e17, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()})
    EXPECT_THROW(Problem1Instance(n, oracle, /*q=*/1, /*lambda=*/0.5,
                                  /*delta=*/0.01, alpha),
                 std::invalid_argument)
        << "alpha=" << alpha;
  // The largest legal chunks still construct.
  EXPECT_EQ(Problem1Instance(n, oracle, 1, 0.5, 0.01, 9e17).chunk_size(),
            9'000'000'000'000'000'000);
}

TEST(DynWorkloads, UpdatesAreAlwaysValid) {
  Rng rng(19);
  for (auto updates :
       {dyn_random_updates(20, 300, 0.6, rng), dyn_sliding_window(20, 40, 300, rng),
        dyn_churn_planted(20, 300, rng)}) {
    DynGraph g(20);
    for (const EdgeUpdate& up : updates) {
      if (up.empty()) continue;
      if (up.insert) {
        EXPECT_TRUE(g.insert(up.u, up.v));
      } else {
        EXPECT_TRUE(g.erase(up.u, up.v));
      }
    }
  }
}

TEST(DynWorkloads, ShardPartitionedStreamIsValidAndSkewed) {
  Rng rng(13);
  const int shards = 4;
  const Vertex n = 64;  // blocks of 16
  const auto local = dyn_shard_partitioned(n, shards, 400, 0.0, 0.7, rng);
  const auto cross = dyn_shard_partitioned(n, shards, 400, 1.0, 0.7, rng);
  const auto owner = [](Vertex v) { return v / 16; };
  DynGraph g1(n), g2(n);
  std::int64_t cross_in_local = 0, cross_in_cross = 0, ins1 = 0, ins2 = 0;
  for (const EdgeUpdate& up : local) {
    if (up.insert) {
      EXPECT_TRUE(g1.insert(up.u, up.v));
      ++ins1;
      cross_in_local += owner(up.u) != owner(up.v);
    } else {
      EXPECT_TRUE(g1.erase(up.u, up.v));
    }
  }
  for (const EdgeUpdate& up : cross) {
    if (up.insert) {
      EXPECT_TRUE(g2.insert(up.u, up.v));
      ++ins2;
      cross_in_cross += owner(up.u) != owner(up.v);
    } else {
      EXPECT_TRUE(g2.erase(up.u, up.v));
    }
  }
  // cross_fraction = 0 stays (nearly; saturation fallback aside) intra-shard;
  // cross_fraction = 1 straddles shards on (nearly) every insertion.
  EXPECT_LT(cross_in_local * 10, ins1);
  EXPECT_GT(cross_in_cross * 10, 9 * ins2);
}

TEST(DynWorkloads, UnevenPartitionsExcludeUndersizedBlocksFromDraws) {
  // n = 9, shards = 4: ceil split [0,3) [3,6) [6,9) [] — the last block is
  // empty; n = 10 leaves a single-vertex block [9,10) that can host a
  // cross-shard endpoint but no intra-shard edge. Streams must stay valid.
  Rng rng(17);
  for (const Vertex n : {9, 10}) {
    for (const double cross : {0.0, 1.0}) {
      const auto ups = dyn_shard_partitioned(n, 4, 150, cross, 0.7, rng);
      DynGraph g(n);
      for (const EdgeUpdate& up : ups) {
        if (up.insert) {
          EXPECT_TRUE(g.insert(up.u, up.v));
        } else {
          EXPECT_TRUE(g.erase(up.u, up.v));
        }
      }
    }
  }
}

TEST(DynWorkloads, SlidingWindowBoundsLiveEdges) {
  Rng rng(23);
  const auto updates = dyn_sliding_window(30, 25, 500, rng);
  DynGraph g(30);
  for (const EdgeUpdate& up : updates) {
    if (up.insert)
      g.insert(up.u, up.v);
    else
      g.erase(up.u, up.v);
    EXPECT_LE(g.num_edges(), 25);
  }
}

}  // namespace
}  // namespace bmf
