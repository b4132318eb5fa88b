#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "core/framework.hpp"
#include "dynamic/static_weak.hpp"
#include "matching/blossom_exact.hpp"
#include "matching/greedy.hpp"
#include "static_inputs.hpp"
#include "workloads/gen.hpp"

namespace bmf {
namespace {

void expect_boosted(const Graph& g, double eps, std::uint64_t seed,
                    bool check_invariants = true) {
  CoreConfig cfg;
  cfg.eps = eps;
  cfg.seed = seed;
  cfg.check_invariants = check_invariants;
  GreedyMatchingOracle oracle;
  const BoostResult r = boost_matching(g, oracle, cfg);
  ASSERT_TRUE(r.matching.is_valid_in(g));
  const std::int64_t mu = maximum_matching_size(g);
  EXPECT_GE(static_cast<double>(r.matching.size()) * (1.0 + eps),
            static_cast<double>(mu))
      << "eps=" << eps << " seed=" << seed << " |M|=" << r.matching.size()
      << " mu=" << mu;
}

TEST(Framework, EmptyGraph) {
  const Graph g = make_graph(5, {});
  GreedyMatchingOracle oracle;
  CoreConfig cfg;
  const BoostResult r = boost_matching(g, oracle, cfg);
  EXPECT_EQ(r.matching.size(), 0);
}

TEST(Framework, SingleEdge) {
  const Graph g = make_graph(2, std::vector<Edge>{{0, 1}});
  GreedyMatchingOracle oracle;
  CoreConfig cfg;
  const BoostResult r = boost_matching(g, oracle, cfg);
  EXPECT_EQ(r.matching.size(), 1);
}

TEST(Framework, InitialMatchingIsConstantApprox) {
  Rng rng(3);
  const Graph g = gen_random_graph(200, 800, rng);
  GreedyMatchingOracle oracle;
  CoreConfig cfg;
  const Matching m = framework_initial_matching(g, oracle, cfg);
  EXPECT_TRUE(m.is_valid_in(g));
  EXPECT_TRUE(m.is_maximal_in(g));
  // Lemma 5.3: O(c) calls suffice.
  EXPECT_LE(oracle.calls(), 2 * 2 + 1);
  EXPECT_GE(4 * m.size(), maximum_matching_size(g));
}

TEST(Framework, AugmentingChainsAreFullyAugmented) {
  // Greedy can leave one long augmenting path per gadget; the framework must
  // recover all of them.
  const Graph g = gen_augmenting_chains(10, 4);  // paths with 9 edges
  expect_boosted(g, 0.2, 1);
}

TEST(Framework, AdversarialChainsTrapSortedGreedy) {
  // The adversarial labeling makes sorted-order greedy leave exactly one
  // augmenting path of length 2k+1 per gadget...
  for (Vertex k : {1, 2, 3, 5}) {
    const Graph g = gen_adversarial_chains(7, k);
    const Matching greedy = greedy_maximal_matching(g);
    EXPECT_EQ(greedy.size(), 7 * k) << "k=" << k;
    EXPECT_EQ(maximum_matching_size(g), 7 * (k + 1)) << "k=" << k;
  }
  // ...which the framework then recovers in full (certificate implies the
  // exact optimum here since all augmenting paths are shorter than 3/eps).
  const Graph g = gen_adversarial_chains(7, 3);
  GreedyMatchingOracle oracle;
  CoreConfig cfg;
  cfg.eps = 0.25;
  cfg.check_invariants = true;
  const BoostResult r = boost_matching(g, oracle, cfg);
  EXPECT_EQ(r.matching.size(), maximum_matching_size(g));
}

TEST(Framework, OddCyclesNeedContraction) {
  const Graph g = gen_odd_cycles(8, 9);
  expect_boosted(g, 0.25, 1);
}

TEST(Framework, CertifiedRunsAreExact) {
  // A certified run implies no augmenting path of length <= 3/eps; on paths
  // shorter than that, the result must be exactly maximum.
  const Graph g = gen_disjoint_paths(6, 7);
  CoreConfig cfg;
  cfg.eps = 0.2;  // l_max = 15 > path length
  cfg.check_invariants = true;
  GreedyMatchingOracle oracle;
  const BoostResult r = boost_matching(g, oracle, cfg);
  if (r.outcome.certified) {
    EXPECT_EQ(r.matching.size(), maximum_matching_size(g));
  }
  EXPECT_GE(static_cast<double>(r.matching.size()) * 1.2,
            static_cast<double>(maximum_matching_size(g)));
}

struct FamilyCase {
  const char* name;
  Graph (*make)(std::uint64_t seed);
};

Graph family_random(std::uint64_t seed) {
  Rng rng(seed);
  return gen_random_graph(120, 360, rng);
}
Graph family_sparse(std::uint64_t seed) {
  Rng rng(seed);
  return gen_random_graph(150, 180, rng);
}
Graph family_bipartite(std::uint64_t seed) {
  Rng rng(seed);
  return gen_random_bipartite(60, 60, 300, rng);
}
Graph family_planted(std::uint64_t seed) {
  Rng rng(seed);
  return gen_planted_matching(100, 150, rng);
}
Graph family_chains(std::uint64_t seed) {
  return gen_augmenting_chains(5 + seed % 5, 3);
}
Graph family_odd_cycles(std::uint64_t seed) {
  return gen_odd_cycles(4 + seed % 4, 5 + 2 * (seed % 3));
}
Graph family_cliques(std::uint64_t seed) { return gen_clique_pair(10 + seed % 7); }
Graph family_regular(std::uint64_t seed) {
  Rng rng(seed);
  return gen_near_regular(100, 4, rng);
}

class FrameworkFamilyTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t, double>> {};

TEST_P(FrameworkFamilyTest, RatioWithinOnePlusEps) {
  static constexpr FamilyCase kFamilies[] = {
      {"random", family_random},     {"sparse", family_sparse},
      {"bipartite", family_bipartite}, {"planted", family_planted},
      {"chains", family_chains},     {"odd_cycles", family_odd_cycles},
      {"cliques", family_cliques},   {"regular", family_regular},
  };
  const auto [family, seed, eps] = GetParam();
  const Graph g = kFamilies[family].make(seed);
  SCOPED_TRACE(kFamilies[family].name);
  expect_boosted(g, eps, seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FrameworkFamilyTest,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Values(1u, 2u, 3u),
                       ::testing::Values(0.5, 0.25, 0.125)));

TEST(Framework, PaperBoundModeStillApproximates) {
  Rng rng(11);
  const Graph g = gen_random_graph(100, 300, rng);
  CoreConfig cfg;
  cfg.eps = 0.25;
  cfg.iteration_mode = IterationMode::kPaperBound;
  GreedyMatchingOracle oracle;
  const BoostResult r = boost_matching(g, oracle, cfg);
  EXPECT_TRUE(r.matching.is_valid_in(g));
  EXPECT_GE(static_cast<double>(r.matching.size()) * 1.25,
            static_cast<double>(maximum_matching_size(g)));
}

TEST(Framework, StageSplitOffMatchesGuarantee) {
  Rng rng(13);
  const Graph g = gen_random_graph(100, 250, rng);
  CoreConfig cfg;
  cfg.eps = 0.25;
  cfg.stage_split = false;
  cfg.check_invariants = true;
  GreedyMatchingOracle oracle;
  const BoostResult r = boost_matching(g, oracle, cfg);
  EXPECT_GE(static_cast<double>(r.matching.size()) * 1.25,
            static_cast<double>(maximum_matching_size(g)));
}

/// Five odd 7-cycles and five adversarial 3-chains joined by ten random
/// chords: the cycles force contractions and, at these seeds, the chords make
/// structures steal subtrees from each other (Overtake case 2.2).
Graph cycles_and_chains(std::uint64_t seed) {
  const Graph cycles = gen_odd_cycles(5, 7);
  const Graph chains = gen_adversarial_chains(5, 3);
  const Vertex shift = cycles.num_vertices();
  const Vertex n = shift + chains.num_vertices();
  std::vector<Edge> edges(cycles.edges().begin(), cycles.edges().end());
  for (const Edge& e : chains.edges()) edges.push_back({e.u + shift, e.v + shift});
  Rng rng(seed);
  const Graph chords = gen_random_graph(n, 10, rng);
  edges.insert(edges.end(), chords.edges().begin(), chords.edges().end());
  return make_graph(n, edges);
}

using testinputs::sparse_odd_random_graph;

TEST(Framework, ChangeTrackingInvariantsHoldThroughContractionsAndSteals) {
  // check_invariants runs StructureForest::check_invariants after every
  // pass-bundle, which also checks the change-tracking state (no
  // contraction-clean vertex has a contractible arc, and every H' arc has an
  // endpoint in the outer log) and that each root blossom's vertex run has
  // its vertex count and lies in its root group.
  std::int64_t contracts = 0, steals = 0;
  const auto tally = [&](const Graph& g, const Matching& m, const BoostOutcome& o) {
    EXPECT_TRUE(m.is_valid_in(g));
    contracts += o.ops.contracts;
    steals += o.ops.overtake_steal;
  };
  std::vector<Graph> graphs;
  for (const std::uint64_t seed : {1, 3, 6}) graphs.push_back(cycles_and_chains(seed));
  graphs.push_back(sparse_odd_random_graph(1));
  for (const Graph& g : graphs) {
    for (const double eps : {1.0, 0.5}) {
      CoreConfig cfg;
      cfg.eps = eps;
      cfg.check_invariants = true;
      {
        GreedyMatchingOracle oracle;
        const BoostResult r = boost_matching(g, oracle, cfg);
        tally(g, r.matching, r.outcome);
      }
      {
        RandomGreedyMatchingOracle oracle(7);
        const BoostResult r = boost_matching(g, oracle, cfg);
        tally(g, r.matching, r.outcome);
      }
      {
        MatrixWeakOracle oracle = MatrixWeakOracle::from_graph(g);
        WeakSimConfig wcfg;
        wcfg.core = cfg;
        const WeakBoostResult r = static_weak_matching(g, oracle, wcfg);
        tally(g, r.matching, r.outcome);
      }
    }
  }
  EXPECT_GT(contracts, 0);
  EXPECT_GT(steals, 0);
}

TEST(Framework, WeakDriverKeepsInnerLabelCountsThroughStealsAndContractions) {
  // The weak driver alone, with check_invariants: after every pass-bundle
  // StructureForest::check_invariants recounts each live structure's inner
  // members per label against the counts the in-structure sweep reads, and
  // checks that every matched arc inside a blossom has label 0. At eps 0.04
  // (l_max 75) there are more labels than counts per structure.
  std::int64_t contracts = 0, steals = 0, relabels = 0;
  for (const std::uint64_t seed : {1, 3, 6}) {
    const Graph g = cycles_and_chains(seed);
    for (const double eps : {1.0, 0.5, 0.04}) {
      MatrixWeakOracle oracle = MatrixWeakOracle::from_graph(g);
      WeakSimConfig wcfg;
      wcfg.core.eps = eps;
      wcfg.core.seed = seed;
      wcfg.core.check_invariants = true;
      const WeakBoostResult r = static_weak_matching(g, oracle, wcfg);
      ASSERT_TRUE(r.matching.is_valid_in(g));
      EXPECT_GE(static_cast<double>(r.matching.size()) * (1.0 + eps),
                static_cast<double>(maximum_matching_size(g)))
          << "seed=" << seed << " eps=" << eps;
      contracts += r.outcome.ops.contracts;
      steals += r.outcome.ops.overtake_steal;
      relabels += r.outcome.ops.overtake_same;
    }
  }
  EXPECT_GT(contracts, 0);
  EXPECT_GT(steals, 0);
  EXPECT_GT(relabels, 0);
}

TEST(Framework, ExactOracleWorksToo) {
  Rng rng(17);
  const Graph g = gen_random_graph(80, 200, rng);
  CoreConfig cfg;
  cfg.eps = 0.25;
  ExactMatchingOracle oracle;
  const BoostResult r = boost_matching(g, oracle, cfg);
  EXPECT_GE(static_cast<double>(r.matching.size()) * 1.25,
            static_cast<double>(maximum_matching_size(g)));
}

TEST(Framework, RandomizedOracleWorks) {
  Rng rng(19);
  const Graph g = gen_random_graph(80, 240, rng);
  CoreConfig cfg;
  cfg.eps = 0.25;
  RandomGreedyMatchingOracle oracle(99);
  const BoostResult r = boost_matching(g, oracle, cfg);
  EXPECT_GE(static_cast<double>(r.matching.size()) * 1.25,
            static_cast<double>(maximum_matching_size(g)));
}

TEST(Framework, OracleCallCountGrowsSlowlyInEps) {
  // Sanity bound on the measured call count: far below the paper's scheduled
  // worst case and monotone-ish in 1/eps.
  Rng rng(23);
  const Graph g = gen_planted_matching(200, 400, rng);
  std::int64_t calls_half = 0, calls_eighth = 0;
  {
    CoreConfig cfg;
    cfg.eps = 0.5;
    GreedyMatchingOracle oracle;
    (void)boost_matching(g, oracle, cfg);
    calls_half = oracle.calls();
  }
  {
    CoreConfig cfg;
    cfg.eps = 0.125;
    GreedyMatchingOracle oracle;
    (void)boost_matching(g, oracle, cfg);
    calls_eighth = oracle.calls();
  }
  EXPECT_GT(calls_half, 0);
  EXPECT_GT(calls_eighth, 0);
  // The adaptive schedule keeps both modest; this guards regressions that
  // would explode the invocation count.
  EXPECT_LT(calls_eighth, 200000);
}

/// Answers the first `cap` calls with the same pairs, whatever graph it is
/// handed, and later calls with nothing; records the vertex count of each
/// graph.
class FixedAnswerOracle final : public MatchingOracle {
 public:
  explicit FixedAnswerOracle(OracleMatching answer,
                             std::int64_t cap = kNoCap)
      : answer_(std::move(answer)), cap_(cap) {}
  static constexpr std::int64_t kNoCap = std::numeric_limits<std::int64_t>::max();
  [[nodiscard]] double approx_factor() const override { return 2.0; }
  std::vector<std::int32_t> graph_sizes;

 protected:
  OracleMatching find_impl(const OracleGraph& h) override {
    graph_sizes.push_back(h.n);
    return calls() <= cap_ ? answer_ : OracleMatching{};
  }

 private:
  OracleMatching answer_;
  std::int64_t cap_;
};

/// A greedy oracle that reports the given approximation factor.
class ClaimedFactorOracle final : public MatchingOracle {
 public:
  explicit ClaimedFactorOracle(double c) : c_(c) {}
  [[nodiscard]] double approx_factor() const override { return c_; }

 protected:
  OracleMatching find_impl(const OracleGraph& h) override {
    return greedy_oracle_matching(h);
  }

 private:
  double c_;
};

TEST(Framework, RejectsApproxFactorsItCannotUse) {
  // The oracle schedules used to cast 2c and 22c ln(1/eps) to int64
  // unchecked: an infinite or NaN factor read back as a bound of 1, and 0.5
  // ran without complaint.
  const Graph g = gen_odd_cycles(3, 5);
  for (const double c : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), 0.5}) {
    for (const IterationMode mode :
         {IterationMode::kUntilEmpty, IterationMode::kPaperBound}) {
      CoreConfig cfg;
      cfg.iteration_mode = mode;
      ClaimedFactorOracle oracle(c);
      EXPECT_THROW((void)boost_matching(g, oracle, cfg), std::invalid_argument)
          << "c=" << c;
      EXPECT_THROW((void)framework_initial_matching(g, oracle, cfg),
                   std::invalid_argument)
          << "c=" << c;
      EXPECT_THROW((void)FrameworkDriver(g, oracle, cfg), std::invalid_argument)
          << "c=" << c;
    }
  }
  // Any finite factor >= 1 is usable; a huge one saturates the schedules.
  for (const double c : {1.0, 1e300}) {
    CoreConfig cfg;
    cfg.iteration_mode = IterationMode::kPaperBound;
    ClaimedFactorOracle oracle(c);
    const BoostResult r = boost_matching(g, oracle, cfg);
    EXPECT_TRUE(r.matching.is_valid_in(g));
    EXPECT_GE(static_cast<double>(r.matching.size()) * (1.0 + cfg.eps),
              static_cast<double>(maximum_matching_size(g)))
        << "c=" << c;
  }
}

TEST(Framework, OutOfRangeOracleAnswerIsNotAnotherEdge) {
  // Free vertices 0 and 1, matched pairs 2-3 and 4-5. Stage 0's H'_s has the
  // left nodes S_0 = 0, S_1 = 1 and the right nodes 2 -> 2, 4 -> 3, with edges
  // (0, 2) and (1, 3). The answer (0, 8) names no vertex of that graph; read
  // as the key 0 * (n + 1) + 8 it would alias the edge (1, 3) and overtake
  // 1 -> 4.
  const Graph g = make_graph(6, std::vector<Edge>{{0, 2}, {1, 4}, {2, 3}, {4, 5}});
  Matching m(6);
  m.add(2, 3);
  m.add(4, 5);
  CoreConfig cfg;
  FixedAnswerOracle oracle({{0, 8}});
  FrameworkDriver driver(g, oracle, cfg);
  StructureForest forest(g, m, cfg);
  forest.init_phase();
  forest.begin_pass_bundle(cfg.hold_limit(CoreConfig::first_scale()));
  driver.extend_active_path(forest);

  EXPECT_EQ(oracle.graph_sizes, (std::vector<std::int32_t>{4}));
  EXPECT_TRUE(forest.is_unvisited(4));
  EXPECT_EQ(forest.structure_of(4), kNoStructure);
  EXPECT_EQ(forest.totals().total(), 0);
  EXPECT_EQ(driver.stats().truncated_loops, 1);
}

/// Calls the fake oracles below answer before they fall silent, so that an
/// initial matching that keeps asking after an answer it cannot use ends.
constexpr std::int64_t kAnswerCap = 8;

/// (answer, matching size, oracle calls) for G = {0-1, 2-3, 4-5}.
struct InitialCase {
  std::vector<std::pair<Vertex, Vertex>> answer;
  std::int64_t size;
  std::int64_t calls;
};

Graph three_edges() {
  return make_graph(6, std::vector<Edge>{{0, 1}, {2, 3}, {4, 5}});
}

TEST(Framework, InitialMatchingAppliesOnlyFreeEdgesOfTheGraph) {
  // Each call gets the same answer: the non-edge (0, 5), or the edge (2, 3),
  // which the first call matches. Only free edges of g join the matching,
  // and the first answer that applies none ends the loop.
  const Graph g = three_edges();
  for (const InitialCase& c :
       {InitialCase{{{0, 5}}, 0, 1}, InitialCase{{{2, 3}}, 1, 2}}) {
    FixedAnswerOracle oracle(c.answer, kAnswerCap);
    const Matching m = framework_initial_matching(g, oracle, CoreConfig{});
    EXPECT_TRUE(m.is_valid_in(g)) << c.answer[0].first << " " << c.answer[0].second;
    EXPECT_EQ(m.size(), c.size);
    EXPECT_EQ(oracle.calls(), c.calls);
  }
}

TEST(Framework, InitialMatchingSkipsPairsThatNameNoTwoVertices) {
  // An id outside [0, n) was read out of bounds, and a pair (v, v) reached
  // Matching::add.
  const Graph g = three_edges();
  for (const InitialCase& c : {InitialCase{{{0, 8}}, 0, 1},
                               InitialCase{{{-1, 2}}, 0, 1},
                               InitialCase{{{3, 3}}, 0, 1}}) {
    FixedAnswerOracle oracle(c.answer, kAnswerCap);
    const Matching m = framework_initial_matching(g, oracle, CoreConfig{});
    EXPECT_EQ(m.size(), c.size);
    EXPECT_EQ(oracle.calls(), c.calls);
  }
}

/// Answers the first `cap` queries with the same pairs, whatever set it is
/// asked about, and later queries with nothing.
class FixedAnswerWeakOracle final : public WeakOracle {
 public:
  FixedAnswerWeakOracle(std::vector<Edge> answer, std::int64_t cap)
      : answer_(std::move(answer)), cap_(cap) {}
  [[nodiscard]] double lambda() const override { return 0.5; }
  void on_insert(Vertex, Vertex) override {}
  void on_erase(Vertex, Vertex) override {}

 protected:
  WeakQueryResult query_impl(std::span<const Vertex>, double) override {
    return {calls() <= cap_ ? answer_ : std::vector<Edge>{}, false};
  }
  WeakQueryResult query_cover_impl(std::span<const Vertex>, std::span<const Vertex>,
                                   double) override {
    return {};
  }

 private:
  std::vector<Edge> answer_;
  std::int64_t cap_;
};

TEST(StaticWeak, InitialMatchingAppliesOnlyPairsOfFreeVertices) {
  // The weak oracle answers on the free set: (2, 3) is matched by the first
  // query and no longer free at the second; the others name no two vertices.
  for (const InitialCase& c :
       {InitialCase{{{2, 3}}, 1, 2}, InitialCase{{{0, 8}}, 0, 1},
        InitialCase{{{-1, 2}}, 0, 1}, InitialCase{{{3, 3}}, 0, 1}}) {
    std::vector<Edge> answer;
    for (const auto& [u, v] : c.answer) answer.push_back({u, v});
    FixedAnswerWeakOracle oracle(answer, kAnswerCap);
    const Matching m = weak_initial_matching(6, oracle, WeakSimConfig{});
    EXPECT_TRUE(m.is_valid_in(three_edges()));
    EXPECT_EQ(m.size(), c.size);
    EXPECT_EQ(oracle.calls(), c.calls);
  }
}

/// Forwards to a driver and, after every Contract-and-Augment, counts the
/// type-1 arcs left behind: a vertex w of a live structure's working blossom
/// and a neighbor x with can_contract(w, x). Algorithm 4 must leave none.
class Type1ArcCheck final : public PassBundleDriver {
 public:
  Type1ArcCheck(const Graph& g, PassBundleDriver& inner) : g_(g), inner_(inner) {}

  void begin_phase(StructureForest& forest) override { inner_.begin_phase(forest); }
  void extend_active_path(StructureForest& forest) override {
    inner_.extend_active_path(forest);
  }
  void contract_and_augment(StructureForest& forest) override {
    inner_.contract_and_augment(forest);
    ++checks;
    for (StructureId sid = 0; sid < forest.num_structures(); ++sid) {
      const StructureInfo& si = forest.structure(sid);
      if (si.removed || si.working == kNoBlossom) continue;
      for (Vertex w : forest.arena().vertices(si.working))
        for (Vertex x : g_.neighbors(w))
          if (forest.can_contract(w, x)) ++leftover_arcs;
    }
  }
  [[nodiscard]] bool exhaustive() const override { return inner_.exhaustive(); }

  std::int64_t checks = 0;
  std::int64_t leftover_arcs = 0;

 private:
  const Graph& g_;
  PassBundleDriver& inner_;
};

std::vector<Graph> type1_check_graphs(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Graph> graphs;
  graphs.push_back(gen_random_graph(91, 273, rng));
  graphs.push_back(gen_random_graph(61, 244, rng));
  graphs.push_back(gen_odd_cycles(5, 7 + 2 * static_cast<Vertex>(seed % 3)));
  return graphs;
}

TEST(ContractAndAugment, FrameworkDriverLeavesNoType1Arc) {
  std::int64_t contractions = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const Graph& g : type1_check_graphs(seed)) {
      CoreConfig cfg;
      cfg.eps = 0.25;
      cfg.seed = seed;
      RandomGreedyMatchingOracle oracle(seed);
      FrameworkDriver driver(g, oracle, cfg);
      Type1ArcCheck check(g, driver);
      Matching m = greedy_maximal_matching(g);
      const BoostOutcome out = PhaseEngine(g, cfg).run(m, check);
      EXPECT_GT(check.checks, 0);
      EXPECT_EQ(check.leftover_arcs, 0) << "seed=" << seed << " n=" << g.num_vertices();
      contractions += out.ops.contracts;
    }
  }
  EXPECT_GT(contractions, 0);  // the check saw contractions happen
}

TEST(ContractAndAugment, WeakOracleDriverLeavesNoType1Arc) {
  std::int64_t contractions = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const Graph& g : type1_check_graphs(seed)) {
      for (const bool fallback : {true, false}) {
        MatrixWeakOracle oracle = MatrixWeakOracle::from_graph(g);
        WeakSimConfig cfg;
        cfg.core.eps = 0.25;
        cfg.exhaustive_fallback = fallback;
        WeakOracleDriver driver(g, oracle, cfg, seed);
        Type1ArcCheck check(g, driver);
        Matching m = weak_initial_matching(g.num_vertices(), oracle, cfg);
        const BoostOutcome out = PhaseEngine(g, cfg.core).run(m, check);
        EXPECT_GT(check.checks, 0);
        EXPECT_EQ(check.leftover_arcs, 0)
            << "seed=" << seed << " n=" << g.num_vertices() << " fallback=" << fallback;
        contractions += out.ops.contracts;
      }
    }
  }
  EXPECT_GT(contractions, 0);
}

}  // namespace
}  // namespace bmf
