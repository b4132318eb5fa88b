/// Determinism of the pool's three users — MPC supersteps, best-of-k oracle
/// sampling and the boosting ensemble: for a fixed seed each must produce
/// bit-identical results at 1, 2, and 8 threads. This is the contract
/// documented in util/thread_pool.hpp (per-index slots merged in index order
/// after the loop), and it is what makes each fan-out a faithful drop-in for
/// its serial loop.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/framework.hpp"
#include "core/oracle.hpp"
#include "mpc/mpc_boost.hpp"
#include "mpc/mpc_matching.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads/gen.hpp"

namespace bmf {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

TEST(ParallelDeterminism, MpcMaximalMatchingIdenticalAcrossThreadCounts) {
  Rng grng(42);
  const Graph g = gen_random_graph(300, 1200, grng);
  const OracleGraph h = to_oracle_graph(g);

  std::vector<OracleMatching> results;
  std::vector<std::int64_t> rounds, messages;
  for (int threads : kThreadCounts) {
    mpc::MpcConfig cfg;
    cfg.machines = 8;
    cfg.threads = threads;
    mpc::Cluster cluster(cfg);
    Rng rng(7);
    const mpc::MpcMatchingResult r = mpc::mpc_maximal_matching(cluster, h, rng);
    results.push_back(r.matching);
    rounds.push_back(r.rounds);
    messages.push_back(cluster.messages_sent());
    EXPECT_EQ(cluster.violations(), 0) << "threads=" << threads;
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]) << "threads=" << kThreadCounts[i];
    EXPECT_EQ(rounds[i], rounds[0]) << "threads=" << kThreadCounts[i];
    EXPECT_EQ(messages[i], messages[0]) << "threads=" << kThreadCounts[i];
  }
}

TEST(ParallelDeterminism, MpcBoostIdenticalAcrossThreadCounts) {
  Rng grng(11);
  const Graph g = gen_planted_matching(150, 320, grng);

  std::vector<std::vector<Edge>> matchings;
  std::vector<std::int64_t> calls, total_rounds;
  for (int threads : kThreadCounts) {
    CoreConfig cfg;
    cfg.eps = 0.25;
    cfg.seed = 3;
    mpc::MpcConfig mpc_cfg;
    mpc_cfg.machines = 8;
    mpc_cfg.threads = threads;
    const mpc::MpcBoostResult r = mpc::mpc_boost_matching(g, mpc_cfg, cfg);
    matchings.push_back(r.boost.matching.edge_list());
    calls.push_back(r.boost.total_oracle_calls);
    total_rounds.push_back(r.total_rounds());
  }
  for (std::size_t i = 1; i < matchings.size(); ++i) {
    EXPECT_EQ(matchings[i], matchings[0]) << "threads=" << kThreadCounts[i];
    EXPECT_EQ(calls[i], calls[0]) << "threads=" << kThreadCounts[i];
    EXPECT_EQ(total_rounds[i], total_rounds[0]) << "threads=" << kThreadCounts[i];
  }
}

TEST(ParallelDeterminism, BoostMatchingWithSamplingOracleIdentical) {
  Rng grng(57);
  const Graph g = gen_augmenting_chains(24, 5);
  // The derived graphs here stay below the sampler's size gate, so open it:
  // otherwise the 2- and 8-thread runs would sample serially.
  const ForceParallelSmallWork force;

  std::vector<std::vector<Edge>> matchings;
  std::vector<std::int64_t> stats;
  for (int threads : kThreadCounts) {
    CoreConfig cfg;
    cfg.eps = 0.25;
    cfg.seed = 17;
    BestOfKRandomGreedyOracle oracle(cfg.seed, 8, threads);
    const BoostResult r = boost_matching(g, oracle, cfg);
    matchings.push_back(r.matching.edge_list());
    stats.push_back(r.total_oracle_calls);
  }
  for (std::size_t i = 1; i < matchings.size(); ++i) {
    EXPECT_EQ(matchings[i], matchings[0]) << "threads=" << kThreadCounts[i];
    EXPECT_EQ(stats[i], stats[0]) << "threads=" << kThreadCounts[i];
  }
}

TEST(ParallelDeterminism, EnsembleIdenticalAcrossThreadCountsAndPicksBest) {
  Rng grng(71);
  const Graph g = gen_random_graph(90, 260, grng);

  EnsembleResult reference;
  bool have_reference = false;
  for (int threads : kThreadCounts) {
    CoreConfig cfg;
    cfg.eps = 0.25;
    cfg.seed = 29;
    cfg.threads = threads;
    const EnsembleResult r = boost_matching_ensemble(
        g,
        [](std::uint64_t seed) {
          return std::make_unique<RandomGreedyMatchingOracle>(seed);
        },
        cfg, 6);
    ASSERT_EQ(r.sizes.size(), 6u);
    ASSERT_GE(r.best_repetition, 0);
    for (std::int64_t size : r.sizes)
      EXPECT_LE(size, r.best.matching.size());
    EXPECT_EQ(r.sizes[static_cast<std::size_t>(r.best_repetition)],
              r.best.matching.size());
    if (!have_reference) {
      reference = r;
      have_reference = true;
    } else {
      EXPECT_EQ(r.sizes, reference.sizes) << "threads=" << threads;
      EXPECT_EQ(r.best_repetition, reference.best_repetition)
          << "threads=" << threads;
      EXPECT_EQ(r.best.matching.edge_list(), reference.best.matching.edge_list())
          << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace bmf
