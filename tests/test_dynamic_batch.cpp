#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "differential_util.hpp"
#include "dynamic/dynamic_matcher.hpp"
#include "dynamic/partial_dynamic.hpp"
#include "dynamic/weak_oracle.hpp"
#include "workloads/dyn_workload.hpp"
#include "workloads/gen.hpp"

namespace bmf {
namespace {

using testdiff::RunResult;

/// The shared checker (tests/differential_util.hpp) at four batch sizes,
/// from one update per batch to the whole stream in one.
void expect_batched_equals_sequential(Vertex n, const std::vector<EdgeUpdate>& ups,
                                      double eps, std::uint64_t seed) {
  DynamicMatcherConfig cfg;
  cfg.eps = eps;
  cfg.seed = seed;
  testdiff::expect_batches_equal_sequential(
      n, ups, cfg, {1, 7, 64, static_cast<std::int64_t>(ups.size())});
}

class BatchDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchDifferential, RandomMixedStreams) {
  Rng rng(GetParam());
  const auto ups = dyn_random_updates(48, 400, 0.7, rng);
  expect_batched_equals_sequential(48, ups, 0.25, GetParam());
}

TEST_P(BatchDifferential, DeletionHeavyStreams) {
  Rng rng(GetParam() + 100);
  const auto ups = dyn_random_updates(40, 400, 0.45, rng);
  expect_batched_equals_sequential(40, ups, 0.5, GetParam());
}

TEST_P(BatchDifferential, SlidingWindow) {
  Rng rng(GetParam() + 200);
  const auto ups = dyn_sliding_window(40, 60, 350, rng);
  expect_batched_equals_sequential(40, ups, 0.25, GetParam());
}

TEST_P(BatchDifferential, ChurnPlanted) {
  Rng rng(GetParam() + 300);
  const auto ups = dyn_churn_planted(40, 350, rng);
  expect_batched_equals_sequential(40, ups, 0.25, GetParam());
}

TEST_P(BatchDifferential, MatchedTeardownRounds) {
  // Rounds of planted-pair build-up followed by consecutive deletion of every
  // matched pair: the teardowns are maximal runs of matched-edge deletions
  // with disjoint endpoints, each repaired by rematching both endpoints, with
  // rebuild triggers landing inside the runs.
  Rng rng(GetParam() + 500);
  const Vertex pairs = 18;
  std::vector<EdgeUpdate> ups;
  std::vector<Vertex> order(static_cast<std::size_t>(pairs));
  for (int round = 0; round < 3; ++round) {
    for (Vertex i = 0; i < pairs; ++i)
      ups.push_back(EdgeUpdate::ins(2 * i, 2 * i + 1));
    // A few cross edges so freed endpoints have rematch candidates.
    for (Vertex i = 0; i + 1 < pairs; i += 3)
      ups.push_back(EdgeUpdate::ins(2 * i + 1, 2 * i + 2));
    // Shuffled teardown of every planted pair, then the cross edges.
    for (Vertex i = 0; i < pairs; ++i) order[static_cast<std::size_t>(i)] = i;
    rng.shuffle(order);
    for (const Vertex j : order) ups.push_back(EdgeUpdate::del(2 * j, 2 * j + 1));
    for (Vertex i = 0; i + 1 < pairs; i += 3)
      ups.push_back(EdgeUpdate::del(2 * i + 1, 2 * i + 2));
  }
  expect_batched_equals_sequential(2 * pairs, ups, 1.0, GetParam());
}

TEST_P(BatchDifferential, HotBurstBatches) {
  // Skewed batches maximize endpoint conflicts inside each batch, driving
  // the prefix-cutting pass rather than the embarrassingly-parallel path.
  Rng rng(GetParam() + 400);
  const auto batches = dyn_batched_bursts(48, 8, 50, 0.65, 0.8, rng);
  std::vector<EdgeUpdate> flat;
  for (const auto& b : batches) flat.insert(flat.end(), b.begin(), b.end());
  DynamicMatcherConfig cfg;
  cfg.eps = 0.25;
  cfg.seed = GetParam();
  const RunResult want = testdiff::run_sequential(48, flat, cfg);
  MatrixWeakOracle oracle(48);
  DynamicMatcher dm(48, oracle, cfg);
  for (const auto& b : batches) dm.apply_batch(b);
  EXPECT_EQ(testdiff::collect(dm), want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferential, ::testing::Values(1u, 2u, 3u));

TEST(BatchDifferential, EmptyUpdatesAndNoOps) {
  // Empty updates, duplicate insertions, deletions of absent edges, and
  // re-insertions all count toward chunk accounting; the batch path must
  // agree on every counter.
  std::vector<EdgeUpdate> ups;
  for (Vertex i = 0; i < 10; ++i) ups.push_back(EdgeUpdate::ins(i, i + 10));
  ups.push_back(EdgeUpdate::none());
  ups.push_back(EdgeUpdate::ins(0, 10));   // duplicate insert (no-op)
  ups.push_back(EdgeUpdate::del(5, 19));   // absent edge (no-op)
  ups.push_back(EdgeUpdate::del(0, 10));   // matched deletion (heavy)
  ups.push_back(EdgeUpdate::none());
  ups.push_back(EdgeUpdate::ins(0, 10));   // re-insert
  ups.push_back(EdgeUpdate::ins(10, 11));  // conflicts with the re-insert
  DynamicMatcherConfig cfg;
  cfg.eps = 0.5;
  EXPECT_EQ(testdiff::run_batched(20, ups, cfg, 100),
            testdiff::run_sequential(20, ups, cfg));
}

TEST(BatchDifferential, InvalidUpdateRejectedBeforeMutation) {
  MatrixWeakOracle oracle(8);
  DynamicMatcherConfig cfg;
  DynamicMatcher dm(8, oracle, cfg);
  std::vector<EdgeUpdate> bad{EdgeUpdate::ins(0, 1), EdgeUpdate::ins(3, 3)};
  EXPECT_THROW(dm.apply_batch(bad), std::invalid_argument);
  // The whole batch is validated up front: nothing was applied.
  EXPECT_EQ(dm.updates(), 0);
  EXPECT_EQ(dm.graph().num_edges(), 0);
}

TEST(Problem1Batch, ChunkMatchesOneAtATimeReplay) {
  // Besides plain inserts, the chunk carries duplicate inserts (in both
  // orientations), same-edge toggles, a deletion of an absent edge and empty
  // updates. It must leave the graph and the oracle exactly as a DynGraph
  // plus a MatrixWeakOracle fed one update at a time.
  const Vertex n = 40;
  std::vector<EdgeUpdate> chunk;
  for (Vertex i = 0; i < 8; ++i) chunk.push_back(EdgeUpdate::ins(i, i + 8));
  chunk.push_back(EdgeUpdate::ins(0, 8));    // duplicate
  chunk.push_back(EdgeUpdate::del(0, 8));    // toggle off
  chunk.push_back(EdgeUpdate::none());
  chunk.push_back(EdgeUpdate::ins(30, 31));
  chunk.push_back(EdgeUpdate::ins(31, 30));  // duplicate, reversed
  chunk.push_back(EdgeUpdate::del(30, 31));  // toggle off, on, off
  chunk.push_back(EdgeUpdate::ins(30, 31));
  chunk.push_back(EdgeUpdate::del(31, 30));
  chunk.push_back(EdgeUpdate::del(34, 35));  // absent deletion
  chunk.push_back(EdgeUpdate::none());
  chunk.push_back(EdgeUpdate::del(2, 10));   // toggle off and on
  chunk.push_back(EdgeUpdate::ins(2, 10));
  ASSERT_EQ(chunk.size(), 20u);

  DynGraph want_graph(n);
  MatrixWeakOracle want_oracle(n);
  for (const EdgeUpdate& up : chunk) {
    if (up.empty()) continue;
    if (up.insert) {
      if (want_graph.insert(up.u, up.v)) want_oracle.on_insert(up.u, up.v);
    } else if (want_graph.erase(up.u, up.v)) {
      want_oracle.on_erase(up.u, up.v);
    }
  }
  const auto edges_of = [](const Graph& g) {
    return std::vector<Edge>(g.edges().begin(), g.edges().end());
  };
  const Graph want = want_graph.snapshot();
  std::vector<Vertex> all;
  for (Vertex v = 0; v < n; ++v) all.push_back(v);
  constexpr double kDelta = 0.01;

  MatrixWeakOracle oracle(n);
  Problem1Instance p1(n, oracle, /*q=*/2, /*lambda=*/0.5, kDelta,
                      /*alpha=*/0.5);
  ASSERT_EQ(p1.chunk_size(), 20);
  p1.apply_chunk(chunk);
  const Graph got = p1.graph().snapshot();
  EXPECT_EQ(edges_of(got), edges_of(want));
  EXPECT_EQ(p1.query(all).matching, want_oracle.query(all, kDelta).matching);
  EXPECT_FALSE(got.has_edge(0, 8));  // the toggle netted out
  EXPECT_EQ(got.num_edges(), 7);

  // A chunk whose last update is invalid is rejected before its first
  // mutation: the graph, the oracle and the query budget stay as they were.
  ASSERT_EQ(p1.queries_left(), 1);
  std::vector<EdgeUpdate> bad(20, EdgeUpdate::del(1, 9));
  bad[1] = EdgeUpdate::ins(20, 21);
  bad.back() = EdgeUpdate::ins(3, 3);
  EXPECT_THROW(p1.apply_chunk(bad), std::invalid_argument);
  EXPECT_EQ(p1.queries_left(), 1);
  EXPECT_EQ(edges_of(p1.graph().snapshot()), edges_of(want));
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = 0; v < n; ++v)
      ASSERT_EQ(oracle.adjacency().get(u, v), want_oracle.adjacency().get(u, v))
          << "bit (" << u << ", " << v << ")";
  EXPECT_EQ(p1.query(all).matching, want_oracle.query(all, kDelta).matching);
}

TEST(PartialDynamicBatch, IncrementalBatchMatchesSerial) {
  Rng rng(5);
  const Graph g = gen_random_graph(40, 140, rng);
  DynamicMatcherConfig cfg;
  cfg.eps = 0.25;
  cfg.threads = 4;
  MatrixWeakOracle o1(40), o2(40);
  IncrementalMatcher serial(40, o1, cfg), batched(40, o2, cfg);
  for (const Edge& e : g.edges()) serial.insert(e.u, e.v);
  batched.insert_batch(g.edges());
  EXPECT_EQ(serial.rebuilds(), batched.rebuilds());
  EXPECT_EQ(serial.matching().size(), batched.matching().size());
  for (Vertex v = 0; v < 40; ++v)
    EXPECT_EQ(serial.matching().mate(v), batched.matching().mate(v));
}

TEST(PartialDynamicBatch, DecrementalEraseBatchMatchesSerial) {
  Rng rng(6);
  const Graph g = gen_random_graph(36, 120, rng);
  DynamicMatcherConfig cfg;
  cfg.eps = 0.25;
  cfg.threads = 4;
  MatrixWeakOracle o1(36), o2(36);
  DecrementalMatcher serial(g, o1, cfg), batched(g, o2, cfg);
  std::vector<Edge> doomed(g.edges().begin(), g.edges().begin() + 40);
  for (const Edge& e : doomed) serial.erase(e.u, e.v);
  batched.erase_batch(doomed);
  EXPECT_EQ(serial.updates(), batched.updates());
  EXPECT_EQ(serial.rebuilds(), batched.rebuilds());
  for (Vertex v = 0; v < 36; ++v)
    EXPECT_EQ(serial.matching().mate(v), batched.matching().mate(v));
}

TEST(PartialDynamicBatch, EraseBatchRejectsDuplicatesAndAbsentEdges) {
  const Graph g = make_graph(4, std::vector<Edge>{{0, 1}, {2, 3}});
  DynamicMatcherConfig cfg;
  MatrixWeakOracle oracle(4);
  DecrementalMatcher dec(g, oracle, cfg);
  // A duplicated deletion must fail like the second of two erase() calls.
  EXPECT_THROW(dec.erase_batch(std::vector<Edge>{{0, 1}, {0, 1}}),
               std::invalid_argument);
  EXPECT_THROW(dec.erase_batch(std::vector<Edge>{{0, 2}}), std::invalid_argument);
  dec.erase_batch(std::vector<Edge>{{0, 1}});
  EXPECT_FALSE(dec.graph().has_edge(0, 1));
}

TEST(DynWorkloads, SliceUpdatesRoundtrip) {
  Rng rng(9);
  const auto ups = dyn_random_updates(20, 103, 0.6, rng);
  const auto batches = slice_updates(ups, 10);
  ASSERT_EQ(batches.size(), 11u);
  EXPECT_EQ(batches.back().size(), 3u);
  std::size_t i = 0;
  for (const auto& b : batches)
    for (const EdgeUpdate& up : b) {
      EXPECT_EQ(up.u, ups[i].u);
      EXPECT_EQ(up.v, ups[i].v);
      EXPECT_EQ(up.insert, ups[i].insert);
      ++i;
    }
  EXPECT_EQ(i, ups.size());
}

TEST(DynWorkloads, BatchedBurstsAreValidAndSkewed) {
  Rng rng(11);
  const auto batches = dyn_batched_bursts(64, 6, 40, 0.7, 0.9, rng);
  ASSERT_EQ(batches.size(), 6u);
  DynGraph g(64);
  std::int64_t hot_endpoints = 0, endpoints = 0;
  for (const auto& b : batches) {
    EXPECT_EQ(b.size(), 40u);
    for (const EdgeUpdate& up : b) {
      if (up.insert) {
        EXPECT_TRUE(g.insert(up.u, up.v));
      } else {
        EXPECT_TRUE(g.erase(up.u, up.v));
      }
      endpoints += 2;
      hot_endpoints += (up.u < 4) + (up.v < 4);  // hot set = max(2, 64/16) = 4
    }
  }
  // The 4-vertex hot set saturates fast (only 6 possible edges), so the
  // global fallback draws too — but the hot share must still sit far above
  // the uniform baseline of 4/64 = 6.25% of endpoints.
  EXPECT_GT(hot_endpoints * 5, endpoints);
}

}  // namespace
}  // namespace bmf
