/// Differential suite for the Theorem 6.2 rebuild engine: DynamicMatcher's
/// apply_batch, with the rebuilds it fires inside batches, must stay
/// bit-identical to the sequential apply loop on deletion-heavy and
/// adaptive-rebuild schedules at any batch size.

#include <gtest/gtest.h>

#include <vector>

#include "differential_util.hpp"
#include "dynamic/dynamic_matcher.hpp"
#include "util/rng.hpp"
#include "workloads/dyn_workload.hpp"

namespace bmf {
namespace {

// ---------------------------------------------------------------------------
// Dynamic: sequential apply loop vs apply_batch, with rebuilds firing inside
// batches.
// ---------------------------------------------------------------------------

using testdiff::RunResult;

/// Three batch sizes, via the shared checker (tests/differential_util.hpp).
void expect_all_modes_equal(Vertex n, const std::vector<EdgeUpdate>& ups,
                            const DynamicMatcherConfig& cfg,
                            std::int64_t min_rebuilds = 1) {
  testdiff::expect_batches_equal_sequential(
      n, ups, cfg, {5, 64, static_cast<std::int64_t>(ups.size())}, min_rebuilds);
}

class RebuildDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RebuildDifferential, PlantedTeardownHeavyRuns) {
  Rng rng(GetParam());
  const Vertex pairs = 24, hubs = 5;
  const Vertex n = 2 * pairs + hubs;
  const auto ups = dyn_planted_teardown(pairs, hubs, rng);
  DynamicMatcherConfig cfg;
  // eps = 1 keeps the adaptive budget ~|M|/4 > 1, so the teardown produces
  // runs of several matched deletions between rebuild triggers (tighter eps
  // collapses the budget to 1 on graphs this small, so a rebuild would
  // follow every deletion).
  cfg.eps = 1.0;
  cfg.seed = GetParam();
  expect_all_modes_equal(n, ups, cfg);
}

TEST_P(RebuildDifferential, DeletionHeavyAdaptiveSchedules) {
  Rng rng(GetParam() + 50);
  const auto ups = dyn_random_updates(44, 500, 0.35, rng);
  DynamicMatcherConfig cfg;
  cfg.eps = 1.0;
  cfg.seed = GetParam();
  expect_all_modes_equal(44, ups, cfg);
}

TEST_P(RebuildDifferential, InsertHeavyFixedCadence) {
  // Insert-dominated stream with a tight fixed rebuild cadence: rebuilds
  // fire inside long insertion runs, at the exact sequential position.
  Rng rng(GetParam() + 150);
  const auto ups = dyn_random_updates(40, 450, 0.95, rng);
  DynamicMatcherConfig cfg;
  cfg.eps = 0.25;
  cfg.seed = GetParam();
  cfg.rebuild_every = 16;
  expect_all_modes_equal(40, ups, cfg, /*min_rebuilds=*/10);
}

TEST_P(RebuildDifferential, ChurnPlantedRebuildHeavy) {
  Rng rng(GetParam() + 250);
  const auto ups = dyn_churn_planted(40, 400, rng);
  DynamicMatcherConfig cfg;
  cfg.eps = 0.25;
  cfg.seed = GetParam();
  expect_all_modes_equal(40, ups, cfg);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RebuildDifferential,
                         ::testing::Values(1u, 2u, 3u));

TEST(RebuildDifferential, HeavyRunCompetingReservations) {
  // Two matched pairs deleted back to back share one free hub: the first
  // freed endpoint in commit order must win it, in a batch as in the loop.
  //   pairs (0,1), (2,3); hub 4 adjacent to 1, 2, 3; vertex 5 adjacent to 3.
  std::vector<EdgeUpdate> ups;
  ups.push_back(EdgeUpdate::ins(0, 1));
  ups.push_back(EdgeUpdate::ins(2, 3));
  ups.push_back(EdgeUpdate::ins(1, 4));
  ups.push_back(EdgeUpdate::ins(2, 4));
  ups.push_back(EdgeUpdate::ins(3, 4));
  ups.push_back(EdgeUpdate::ins(3, 5));
  ups.push_back(EdgeUpdate::del(0, 1));  // heavy: frees 0 and 1; 1 takes hub 4
  ups.push_back(EdgeUpdate::del(2, 3));  // heavy: hub gone, 3 must fall to 5
  DynamicMatcherConfig cfg;
  cfg.eps = 0.25;
  cfg.rebuild_every = 1 << 20;  // keep rebuilds out of this micro-scenario
  const RunResult want = testdiff::run_sequential(6, ups, cfg);
  EXPECT_EQ(want.mates[1], 4);
  EXPECT_EQ(want.mates[3], 5);
  EXPECT_EQ(want.mates[0], kNoVertex);
  EXPECT_EQ(want.mates[2], kNoVertex);
  EXPECT_EQ(testdiff::run_batched(6, ups, cfg, 8), want);
}

TEST(RebuildDifferential, HeavyRunTruncatesAtRebuildTrigger) {
  // A fixed budget forces rebuilds in the middle of runs of matched
  // deletions, at the exact sequential position (pinned by rebuilds() and
  // the weak-call count).
  Rng rng(99);
  const Vertex pairs = 16, hubs = 3;
  const Vertex n = 2 * pairs + hubs;
  const auto ups = dyn_planted_teardown(pairs, hubs, rng);
  DynamicMatcherConfig cfg;
  cfg.eps = 0.25;
  cfg.rebuild_every = 7;
  expect_all_modes_equal(n, ups, cfg, /*min_rebuilds=*/5);
}

}  // namespace
}  // namespace bmf
