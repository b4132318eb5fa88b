#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "core/framework.hpp"
#include "core/phase.hpp"
#include "matching/blossom_exact.hpp"
#include "workloads/gen.hpp"

namespace bmf {
namespace {

// ---------------------------------------------------------------------------
// CoreConfig derived quantities (the paper's parameter formulas).
// ---------------------------------------------------------------------------

TEST(CoreConfig, EllMaxIsThreeOverEps) {
  CoreConfig cfg;
  cfg.eps = 0.25;
  EXPECT_EQ(cfg.ell_max(), 12);
  cfg.eps = 0.1;
  EXPECT_EQ(cfg.ell_max(), 30);
  cfg.eps = 1.0;
  EXPECT_EQ(cfg.ell_max(), 3);
}

TEST(CoreConfig, HoldLimitFollowsScale) {
  CoreConfig cfg;
  EXPECT_EQ(cfg.hold_limit(0.5), 13);    // 6/h + 1
  EXPECT_EQ(cfg.hold_limit(0.25), 25);
  EXPECT_EQ(cfg.hold_limit(0.125), 49);  // doubles as h halves
}

TEST(CoreConfig, ScheduledCountsMatchPaperFormulas) {
  CoreConfig cfg;
  cfg.eps = 0.25;
  EXPECT_EQ(cfg.scheduled_pass_bundles(0.5), 576);  // 72/(h*eps)
  EXPECT_EQ(cfg.scheduled_phases(0.5), 1152);       // 144/(h*eps)
  // 22 * c * ln(1/eps) for c = 2, eps = 1/4: ceil(44 * 1.386...) = 61.
  EXPECT_EQ(cfg.scheduled_iterations(2.0), 61);
}

TEST(CoreConfig, OracleSchedulesSaturate) {
  // 22 * 1e300 * ln 4 and 2 * 1e300 exceed INT64_MAX; the casts used to be
  // unchecked (UBSan: "outside the range of representable values"). The
  // factor is read through a volatile: GCC folds an out-of-range constant
  // conversion to the saturated value, which hides an unchecked cast in an
  // optimized build.
  const volatile double huge = 1e300;
  CoreConfig cfg;
  EXPECT_EQ(cfg.scheduled_iterations(huge), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(CoreConfig::initial_matching_calls(huge),
            std::numeric_limits<std::int64_t>::max());
  // Lemma 5.3's floor(2c) + 1 calls.
  EXPECT_EQ(CoreConfig::initial_matching_calls(2.0), 5);
  EXPECT_EQ(CoreConfig::initial_matching_calls(1.3), 3);
}

TEST(CoreConfig, LastScaleIsEpsSquaredOver64) {
  CoreConfig cfg;
  cfg.eps = 0.5;
  EXPECT_DOUBLE_EQ(cfg.last_scale(), 0.25 / 64.0);
}

TEST(CoreConfig, CapsBoundScheduledValues) {
  CoreConfig cfg;
  cfg.eps = 0.25;
  cfg.max_phases_per_scale = 10;
  EXPECT_EQ(cfg.phase_cap(0.5), 10);
  cfg.max_phases_per_scale = 0;  // 0 = paper value
  EXPECT_EQ(cfg.phase_cap(0.5), cfg.scheduled_phases(0.5));
  cfg.max_pass_bundles = 7;
  EXPECT_EQ(cfg.pass_bundle_cap(0.5), 7);
}

TEST(CoreConfig, RejectsBadEps) {
  CoreConfig cfg;
  cfg.eps = 0.0;
  EXPECT_THROW((void)cfg.ell_max(), std::invalid_argument);
  cfg.eps = 1.5;
  EXPECT_THROW((void)cfg.ell_max(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Phase-engine semantics.
// ---------------------------------------------------------------------------

/// A driver that does nothing: every structure backtracks to inactivity, no
/// augmentation is ever found, and (claiming exhaustiveness) the very first
/// quiescent phase certifies.
class InertDriver final : public PassBundleDriver {
 public:
  void extend_active_path(StructureForest&) override {}
  void contract_and_augment(StructureForest&) override {}
  [[nodiscard]] bool exhaustive() const override { return exhaustive_; }
  bool exhaustive_ = true;
};

TEST(PhaseEngine, InertExhaustiveDriverCertifiesImmediately) {
  // With no free vertices the first phase is trivially quiescent.
  const Graph g = make_graph(4, std::vector<Edge>{{0, 1}, {2, 3}});
  Matching m(4);
  m.add(0, 1);
  m.add(2, 3);
  CoreConfig cfg;
  InertDriver driver;
  const BoostOutcome out = PhaseEngine(g, cfg).run(m, driver);
  EXPECT_TRUE(out.certified);
  EXPECT_EQ(out.phases, 1);
  EXPECT_EQ(out.scales, 1);
  EXPECT_EQ(out.augmenting_paths, 0);
}

TEST(PhaseEngine, InertNonExhaustiveDriverRunsIdleSchedule) {
  const Graph g = make_graph(4, std::vector<Edge>{{0, 1}, {2, 3}});
  Matching m(4);  // empty: two structures per component exist
  CoreConfig cfg;
  cfg.idle_phase_limit = 2;
  InertDriver driver;
  driver.exhaustive_ = false;
  const BoostOutcome out = PhaseEngine(g, cfg).run(m, driver);
  // No certificate available: every scale runs idle_phase_limit phases.
  EXPECT_FALSE(out.certified);
  std::int64_t scales = 1;
  for (double h = CoreConfig::first_scale(); h > cfg.last_scale(); h /= 2) ++scales;
  EXPECT_EQ(out.scales, scales);
  EXPECT_EQ(out.phases, scales * cfg.idle_phase_limit);
}

TEST(PhaseEngine, BacktracksCountTowardQuiescence) {
  // One free vertex with no neighbors: bundle 1 backtracks it to inactive
  // (1 op), bundle 2 is quiescent.
  const Graph g = make_graph(3, std::vector<Edge>{{1, 2}});
  Matching m(3);
  m.add(1, 2);
  CoreConfig cfg;
  InertDriver driver;
  const BoostOutcome out = PhaseEngine(g, cfg).run(m, driver);
  EXPECT_TRUE(out.certified);
  EXPECT_EQ(out.pass_bundles, 2);
  EXPECT_EQ(out.ops.backtracks, 1);
}

TEST(PhaseEngine, RejectsMismatchedMatching) {
  const Graph g = make_graph(3, {});
  Matching m(5);
  CoreConfig cfg;
  InertDriver driver;
  EXPECT_THROW((void)PhaseEngine(g, cfg).run(m, driver), std::invalid_argument);
}

TEST(PhaseEngine, RejectsOutOfRangeEps) {
  // Unchecked, a NaN eps spins forever (the scale loop's NaN last_scale()
  // never stops it) and eps <= 0 runs no phase and hands the input matching
  // back unboosted; both must throw before any work.
  const Graph g = make_graph(3, std::vector<Edge>{{0, 1}, {1, 2}});
  InertDriver driver;
  for (const double eps : {std::nan(""), 0.0, -1.0}) {
    CoreConfig cfg;
    cfg.eps = eps;
    Matching m(3);
    EXPECT_THROW((void)PhaseEngine(g, cfg).run(m, driver), std::invalid_argument)
        << "eps=" << eps;
  }
  // boost_matching builds its driver, whose oracle schedule reads eps, before
  // the engine rejects it: ln(1/eps) is NaN or -inf there.
  for (const double eps : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    CoreConfig cfg;
    cfg.eps = eps;
    GreedyMatchingOracle oracle;
    EXPECT_THROW((void)boost_matching(g, oracle, cfg), std::invalid_argument)
        << "eps=" << eps;
  }
}

TEST(PhaseEngine, RejectsEpsTooSmallForAnIntLabelBound) {
  // Below eps ~1.4e-9, ceil(3/eps) does not fit an int. The cast used to
  // wrap (ell_max() was 1 on x86), and boost_matching certified matchings
  // below mu / (1 + eps), e.g. |M| = 46 < mu = 49 on these chains.
  const Graph g = gen_adversarial_chains(7, 6);
  for (const double eps : {1e-12, 1e-10, 1.3e-9}) {
    CoreConfig cfg;
    cfg.eps = eps;
    EXPECT_THROW((void)cfg.ell_max(), std::invalid_argument) << "eps=" << eps;
    InertDriver driver;
    Matching m(g.num_vertices());
    EXPECT_THROW((void)PhaseEngine(g, cfg).run(m, driver), std::invalid_argument)
        << "eps=" << eps;
    GreedyMatchingOracle oracle;
    EXPECT_THROW((void)boost_matching(g, oracle, cfg), std::invalid_argument)
        << "eps=" << eps;
  }
  // The smallest eps whose l_max + 1 fits is still accepted, and the paper's
  // schedules, which pass INT64_MAX at its finest scale, saturate.
  CoreConfig cfg;
  cfg.eps = 1.4e-9;
  EXPECT_EQ(cfg.ell_max(), 2142857143);
  const double h = cfg.last_scale();
  EXPECT_EQ(cfg.scheduled_pass_bundles(h), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(cfg.scheduled_phases(h), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(cfg.pass_bundle_cap(h), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(cfg.phase_cap(h), cfg.max_phases_per_scale);
}

TEST(PhaseEngine, OutcomeAccountingConsistent) {
  Rng rng(5);
  const Graph g = gen_random_graph(100, 300, rng);
  GreedyMatchingOracle oracle;
  CoreConfig cfg;
  cfg.eps = 0.25;
  const BoostResult r = boost_matching(g, oracle, cfg);
  EXPECT_GE(r.outcome.pass_bundles, r.outcome.phases);
  EXPECT_GE(r.outcome.phases, r.outcome.scales >= 1 ? 1 : 0);
  EXPECT_EQ(r.outcome.augmenting_paths, r.outcome.ops.augments);
  EXPECT_EQ(r.total_oracle_calls, oracle.calls());
  EXPECT_GE(r.total_oracle_calls, r.initial_oracle_calls);
}

TEST(PhaseEngine, PassBundleCapStopsRunawayPhases) {
  Rng rng(7);
  const Graph g = gen_random_graph(60, 180, rng);
  GreedyMatchingOracle oracle;
  CoreConfig cfg;
  cfg.eps = 0.5;
  cfg.max_pass_bundles = 1;  // pathological cap: one bundle per phase
  const BoostResult r = boost_matching(g, oracle, cfg);
  // Still valid and still 2-approximate at worst (initial maximal matching
  // only improves), but certification may be impossible.
  EXPECT_TRUE(r.matching.is_valid_in(g));
  EXPECT_GE(2 * r.matching.size(), maximum_matching_size(g));
}

TEST(PhaseEngine, AugmentationsNeverDecreaseMatching) {
  Rng rng(11);
  const Graph g = gen_random_graph(80, 240, rng);
  GreedyMatchingOracle oracle;
  CoreConfig cfg;
  cfg.eps = 0.25;
  const Matching initial = framework_initial_matching(g, oracle, cfg);
  Matching m = initial;
  FrameworkDriver driver(g, oracle, cfg);
  const BoostOutcome out = PhaseEngine(g, cfg).run(m, driver);
  EXPECT_EQ(m.size(), initial.size() + out.augmenting_paths);
  EXPECT_TRUE(m.is_valid_in(g));
}

// ---------------------------------------------------------------------------
// Oracle accounting.
// ---------------------------------------------------------------------------

TEST(OracleCounters, TrackCallsVerticesEdges) {
  GreedyMatchingOracle oracle;
  OracleGraph h;
  h.n = 4;
  h.edges = {{0, 1}, {2, 3}};
  (void)oracle.find_matching(h);
  (void)oracle.find_matching(h);
  EXPECT_EQ(oracle.calls(), 2);
  EXPECT_EQ(oracle.total_vertices(), 8);
  EXPECT_EQ(oracle.total_edges(), 4);
  oracle.reset_counters();
  EXPECT_EQ(oracle.calls(), 0);
}

TEST(OracleCounters, GreedyOracleMatchingIsMaximal) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = gen_random_graph(40, 100, rng);
    OracleGraph h;
    h.n = g.num_vertices();
    for (const Edge& e : g.edges()) h.edges.emplace_back(e.u, e.v);
    const OracleMatching found = greedy_oracle_matching(h);
    Matching m(h.n);
    for (const auto& [u, v] : found) m.add(u, v);
    EXPECT_TRUE(m.is_maximal_in(g));
  }
}

}  // namespace
}  // namespace bmf
