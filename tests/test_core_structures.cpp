#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "core/framework.hpp"
#include "core/structures.hpp"
#include "matching/matching.hpp"

namespace bmf {
namespace {

CoreConfig checked_config(double eps = 0.25) {
  CoreConfig cfg;
  cfg.eps = eps;
  cfg.check_invariants = true;
  return cfg;
}

TEST(StructureForest, InitPhaseBuildsOneStructurePerFreeVertex) {
  const Graph g = make_graph(4, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}});
  Matching m(4);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  ASSERT_EQ(f.num_structures(), 2);  // free vertices 0 and 3
  EXPECT_EQ(f.structure(0).alpha, 0);
  EXPECT_EQ(f.structure(1).alpha, 3);
  EXPECT_TRUE(f.is_outer(0));
  EXPECT_TRUE(f.is_unvisited(1));
  EXPECT_EQ(f.label(1), cfg.ell_max() + 1);
  EXPECT_EQ(f.label(0), 0);
  f.check_invariants();
}

TEST(StructureForest, OvertakeCase1AttachesMatchedArc) {
  // 0 (free) - 1 = 2, with {1,2} matched.
  const Graph g = make_graph(3, std::vector<Edge>{{0, 1}, {1, 2}});
  Matching m(3);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);

  ASSERT_TRUE(f.can_overtake(0, 1, 1));
  f.overtake(0, 1, 1);
  f.check_invariants();

  EXPECT_EQ(f.structure(0).size, 3);
  EXPECT_EQ(f.label(1), 1);
  EXPECT_TRUE(f.is_inner(1));
  EXPECT_TRUE(f.is_outer(2));
  EXPECT_EQ(f.structure(0).working, f.omega(2));
  EXPECT_EQ(f.outer_level(f.omega(2)), 1);
  EXPECT_TRUE(f.structure(0).extended);
  EXPECT_TRUE(f.structure(0).modified);
  // A second overtake in the same pass-bundle is blocked (extended).
  EXPECT_FALSE(f.can_overtake(2, 1, 1));
}

TEST(StructureForest, OvertakeRejectsBadInputs) {
  const Graph g = make_graph(5, std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}});
  Matching m(5);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);

  EXPECT_FALSE(f.can_overtake(0, 3, 1));              // 3 is free (structure root)
  EXPECT_FALSE(f.can_overtake(0, 1, cfg.ell_max() + 1));  // label not smaller
  EXPECT_FALSE(f.can_overtake(1, 0, 1));              // tail not a working vertex
  EXPECT_FALSE(f.can_overtake(0, 1, 0));              // labels start at 1
}

TEST(StructureForest, AugmentLengthOnePath) {
  const Graph g = make_graph(2, std::vector<Edge>{{0, 1}});
  Matching m(2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);

  ASSERT_TRUE(f.can_augment(0, 1));
  f.augment(0, 1);
  ASSERT_EQ(f.recorded_paths().size(), 1u);
  EXPECT_EQ(f.recorded_paths()[0], (std::vector<Vertex>{0, 1}));
  EXPECT_TRUE(f.is_removed(0));
  EXPECT_TRUE(f.is_removed(1));
  EXPECT_TRUE(f.structure(0).removed);
  EXPECT_FALSE(f.can_augment(0, 1));  // both gone
}

TEST(StructureForest, AugmentLongPathThroughStructures) {
  // alpha=0 -u- 1 -m- 2 -u- 3 -m- 4 -u- 5=beta
  const Graph g =
      make_graph(6, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  Matching m(6);
  m.add(1, 2);
  m.add(3, 4);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();

  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.begin_pass_bundle(1000);
  f.overtake(5, 4, 1);  // structure of 5 takes (4,3): arc (5,4), a=(4,3)
  f.check_invariants();

  // Now 2 (outer in S_0) and 3 (outer in S_1) are adjacent.
  ASSERT_TRUE(f.can_augment(2, 3));
  f.augment(2, 3);
  ASSERT_EQ(f.recorded_paths().size(), 1u);
  const auto& p = f.recorded_paths()[0];
  EXPECT_EQ(p, (std::vector<Vertex>{0, 1, 2, 3, 4, 5}));
  EXPECT_TRUE(is_augmenting_path(g, m, p));
}

TEST(StructureForest, ContractBuildsBlossomAndZerosLabels) {
  // Triangle 0-1-2 with {1,2} matched, 0 free; plus tail 1-3, 3 free.
  const Graph g =
      make_graph(4, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}, {1, 3}});
  Matching m(4);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();

  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.begin_pass_bundle(1000);
  // Working vertex is Omega(2); arc (2,0) connects it to the root: type 1.
  ASSERT_TRUE(f.can_contract(2, 0));
  f.contract(2, 0);
  f.check_invariants();

  const BlossomId b = f.omega(0);
  EXPECT_EQ(b, f.omega(1));
  EXPECT_EQ(b, f.omega(2));
  EXPECT_TRUE(f.arena().node(b).outer);
  EXPECT_EQ(f.arena().base(b), 0);
  EXPECT_EQ(f.structure(0).working, b);
  // Matched arcs inside E_B get label 0.
  EXPECT_EQ(f.label(1), 0);
  EXPECT_EQ(f.label(2), 0);
  // All three vertices are now outer: 1 is reachable for an augment from 3.
  ASSERT_TRUE(f.can_augment(1, 3));
  f.augment(1, 3);
  const auto& p = f.recorded_paths()[0];
  EXPECT_TRUE(is_augmenting_path(g, m, p));
  EXPECT_EQ(p.size(), 4u);  // 0,2,1,3 — through the blossom
}

TEST(StructureForest, BacktrackWalksUpAndDeactivates) {
  const Graph g = make_graph(3, std::vector<Edge>{{0, 1}, {1, 2}});
  Matching m(3);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);

  f.begin_pass_bundle(1000);  // resets modified
  f.backtrack_stuck();
  EXPECT_EQ(f.structure(0).working, f.omega(0));  // grandparent = root
  f.begin_pass_bundle(1000);
  f.backtrack_stuck();
  EXPECT_EQ(f.structure(0).working, kNoBlossom);  // root -> inactive
  f.begin_pass_bundle(1000);
  f.backtrack_stuck();  // no-op on inactive structures
  EXPECT_EQ(f.ops_this_bundle(), 0);
}

TEST(StructureForest, BacktrackSkipsModifiedAndOnHold) {
  const Graph g = make_graph(3, std::vector<Edge>{{0, 1}, {1, 2}});
  Matching m(3);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);  // marks modified
  f.backtrack_stuck();  // must skip: modified
  EXPECT_EQ(f.structure(0).working, f.omega(2));

  f.begin_pass_bundle(1);  // size 3 >= 1: on hold
  EXPECT_TRUE(f.structure(0).on_hold);
  EXPECT_TRUE(f.hold_seen());
  f.backtrack_stuck();  // must skip: on hold
  EXPECT_EQ(f.structure(0).working, f.omega(2));
}

TEST(StructureForest, OvertakeCase21ReparentsWithinStructure) {
  // Chain 0 -u- 1 -m- 2 -u- 3 -m- 4 -u- 5 -m- 6 and branch 0 -u- 7 -m- 8,
  // with shortcut {8,5}: after the chain backtracks, the branch steals inner 5.
  const Graph g = make_graph(
      9, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6},
                           {0, 7}, {7, 8}, {8, 5}});
  Matching m(9);
  m.add(1, 2);
  m.add(3, 4);
  m.add(5, 6);
  m.add(7, 8);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();

  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.begin_pass_bundle(1000);
  f.overtake(2, 3, 2);
  f.begin_pass_bundle(1000);
  f.overtake(4, 5, 3);
  // Backtrack the stuck tip all the way to the root.
  for (int i = 0; i < 3; ++i) {
    f.begin_pass_bundle(1000);
    f.backtrack_stuck();
  }
  ASSERT_EQ(f.structure(0).working, f.omega(0));
  f.begin_pass_bundle(1000);
  f.overtake(0, 7, 1);
  ASSERT_EQ(f.structure(0).working, f.omega(8));

  f.begin_pass_bundle(1000);
  // (8,5): same-structure overtake; 5 is inner with label 3, new label 2.
  ASSERT_TRUE(f.can_overtake(8, 5, 2));
  f.overtake(8, 5, 2);
  f.check_invariants();
  EXPECT_EQ(f.label(5), 2);
  EXPECT_EQ(f.structure(0).working, f.omega(6));
  EXPECT_EQ(f.outer_level(f.omega(6)), 2);
  EXPECT_EQ(f.totals().overtake_same, 1);
  // The active path now runs 0,7,8,5,6.
  const auto path = f.active_path(0);
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(f.arena().node(path[1]).vert, 7);
  EXPECT_EQ(f.arena().node(path[3]).vert, 5);
}

TEST(StructureForest, OvertakeCase22StealsSubtreeAndWorkingVertex) {
  // Figure 2 scenario. S_beta (rooted at 10) reaches the matched arc (1,2)
  // through a long route; S_alpha (rooted at 0) steals it with a smaller
  // label, taking the victim's working vertex along.
  const Graph g = make_graph(
      11, std::vector<Edge>{{10, 5}, {5, 6}, {6, 1}, {1, 2}, {0, 1}});
  Matching m(11);
  m.add(5, 6);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  const StructureId s_alpha = f.structure_of(0);
  const StructureId s_beta = f.structure_of(10);

  f.begin_pass_bundle(1000);
  f.overtake(10, 5, 1);
  f.begin_pass_bundle(1000);
  f.overtake(6, 1, 2);
  ASSERT_EQ(f.structure(s_beta).size, 5);
  ASSERT_EQ(f.structure(s_beta).working, f.omega(2));

  f.begin_pass_bundle(1000);
  ASSERT_TRUE(f.can_overtake(0, 1, 1));
  f.overtake(0, 1, 1);
  f.check_invariants();

  EXPECT_EQ(f.totals().overtake_steal, 1);
  EXPECT_EQ(f.structure_of(1), s_alpha);
  EXPECT_EQ(f.structure_of(2), s_alpha);
  EXPECT_EQ(f.structure_of(6), s_beta);
  EXPECT_EQ(f.structure(s_alpha).size, 3);
  EXPECT_EQ(f.structure(s_beta).size, 3);
  EXPECT_EQ(f.label(1), 1);
  // Step 5: the victim's working vertex moved with the subtree, so S_alpha
  // inherits it and S_beta retreats to Omega(p) = Omega(6).
  EXPECT_EQ(f.structure(s_alpha).working, f.omega(2));
  EXPECT_EQ(f.structure(s_beta).working, f.omega(6));
  // Overtaker extended, victim only modified.
  EXPECT_TRUE(f.structure(s_alpha).extended);
  EXPECT_TRUE(f.structure(s_beta).modified);
  EXPECT_FALSE(f.structure(s_beta).extended);
}

TEST(StructureForest, OvertakeCase22VictimWorkingElsewhere) {
  // Variant where the victim's working vertex is NOT under the stolen
  // subtree at steal time (it backtracked above it), so S_alpha's working
  // vertex becomes t' and the victim keeps its own. The overtaker stays
  // level-0 by contracting a triangle blossom, then steals with k = 1.
  const Graph g = make_graph(
      15, std::vector<Edge>{// alpha's triangle + extension + steal edge
                            {0, 11}, {11, 12}, {12, 0}, {12, 13}, {13, 14},
                            {12, 1},
                            // beta's chain
                            {10, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 1}, {1, 2}});
  Matching m(15);
  m.add(11, 12);
  m.add(13, 14);
  m.add(5, 6);
  m.add(7, 8);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  const StructureId s_alpha = f.structure_of(0);
  const StructureId s_beta = f.structure_of(10);

  f.begin_pass_bundle(1000);
  f.overtake(10, 5, 1);
  f.overtake(0, 11, 1);
  f.begin_pass_bundle(1000);
  f.overtake(6, 7, 2);
  ASSERT_TRUE(f.can_contract(12, 0));
  f.contract(12, 0);  // alpha's working is now the root blossom, level 0
  f.begin_pass_bundle(1000);
  f.overtake(8, 1, 3);  // beta reaches (1,2) at label 3
  f.overtake(12, 13, 1);
  f.begin_pass_bundle(1000);
  f.backtrack_stuck();  // beta: Omega(2) -> Omega(8); alpha: Omega(14) -> blossom
  ASSERT_EQ(f.structure(s_beta).working, f.omega(8));
  ASSERT_EQ(f.structure(s_alpha).working, f.omega(0));

  f.begin_pass_bundle(1000);
  ASSERT_TRUE(f.can_overtake(12, 1, 1));
  f.overtake(12, 1, 1);
  f.check_invariants();
  EXPECT_EQ(f.totals().overtake_steal, 1);
  EXPECT_EQ(f.structure_of(1), s_alpha);
  EXPECT_EQ(f.structure_of(2), s_alpha);
  EXPECT_EQ(f.structure(s_alpha).working, f.omega(2));  // t'
  EXPECT_EQ(f.structure(s_beta).working, f.omega(8));   // unchanged
  EXPECT_EQ(f.structure(s_alpha).size, 7);
  EXPECT_EQ(f.structure(s_beta).size, 5);
}

TEST(StructureForest, AncestorOvertakeRejected) {
  const Graph g =
      make_graph(5, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 1}});
  Matching m(5);
  m.add(1, 2);
  m.add(3, 4);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.begin_pass_bundle(1000);
  f.overtake(2, 3, 2);
  f.begin_pass_bundle(1000);
  // From working Omega(4), arc (4,1) targets inner ancestor 1: forbidden by
  // (P2) regardless of labels.
  EXPECT_FALSE(f.can_overtake(4, 1, 3));
}

TEST(StructureForest, ContractThenPathThroughNestedBlossom) {
  // Odd cycle of length 5: 0-1-2-3-4-0 with {1,2},{3,4} matched, 0 free,
  // and a free pendant 5 attached to 2.
  const Graph g = make_graph(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {2, 5}});
  Matching m(6);
  m.add(1, 2);
  m.add(3, 4);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();

  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.begin_pass_bundle(1000);
  f.overtake(2, 3, 2);
  f.begin_pass_bundle(1000);
  // Working is Omega(4); arc (4,0) closes the odd cycle.
  ASSERT_TRUE(f.can_contract(4, 0));
  f.contract(4, 0);
  f.check_invariants();
  const BlossomId b = f.omega(0);
  EXPECT_EQ(f.arena().vertex_count(b), 5);
  EXPECT_EQ(f.structure(0).working, b);

  // 2 is now an outer vertex; augment to the free pendant 5.
  ASSERT_TRUE(f.can_augment(2, 5));
  f.augment(2, 5);
  const auto& p = f.recorded_paths()[0];
  EXPECT_TRUE(is_augmenting_path(g, m, p));
  EXPECT_EQ(p.front(), 0);
  EXPECT_EQ(p.back(), 5);
}

TEST(StructureForest, OpsCountersTrackOperations) {
  const Graph g = make_graph(3, std::vector<Edge>{{0, 1}, {1, 2}});
  Matching m(3);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);
  EXPECT_EQ(f.ops_this_bundle(), 0);
  f.overtake(0, 1, 1);
  EXPECT_EQ(f.ops_this_bundle(), 1);
  f.begin_pass_bundle(1000);
  EXPECT_EQ(f.ops_this_bundle(), 0);
  EXPECT_EQ(f.totals().overtake_unvisited, 1);
}

// ---------------------------------------------------------------------------
// Change tracking: the outer log, contraction-clean bits and eligible levels.
// ---------------------------------------------------------------------------

TEST(StructureForest, InitPhaseLogsEveryRoot) {
  // With no matching, H' starts as the whole graph: both roots must be logged
  // for the augment sweep's log scan to see the arc.
  const Graph g = make_graph(3, std::vector<Edge>{{0, 1}});
  Matching m(3);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  EXPECT_EQ(f.outer_log(), (std::vector<Vertex>{0, 1, 2}));
  GreedyMatchingOracle oracle;
  FrameworkDriver driver(g, oracle, cfg);
  f.begin_pass_bundle(1000);
  driver.run_augment_loop(f);
  EXPECT_EQ(f.recorded_paths().size(), 1u);
  EXPECT_TRUE(f.outer_log().empty());  // the last sweep found H' empty
  f.check_invariants();
}

TEST(StructureForest, StealLogsTheOuterVerticesItMoves) {
  // S_0: 0 - 1 = 2 - 3 = 4, with the arc 4 - 0 left uncontracted; S_5 steals
  // {3, 4} through 5 - 3. The moved 4 then forms the H' arc (4, 0), whose
  // other endpoint left the log when a sweep found H' empty.
  const Graph g = make_graph(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {5, 3}});
  Matching m(6);
  m.add(1, 2);
  m.add(3, 4);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  GreedyMatchingOracle oracle;
  FrameworkDriver driver(g, oracle, cfg);
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.begin_pass_bundle(1000);
  f.overtake(2, 3, 2);
  driver.run_augment_loop(f);  // H' is empty: clears the log
  ASSERT_TRUE(f.outer_log().empty());
  ASSERT_TRUE(f.recorded_paths().empty());

  f.begin_pass_bundle(1000);
  ASSERT_TRUE(f.can_overtake(5, 3, 1));
  f.overtake(5, 3, 1);  // case 2.2
  EXPECT_EQ(f.structure_of(4), f.structure_of(5));
  EXPECT_EQ(f.outer_log(), (std::vector<Vertex>{4}));
  f.check_invariants();
  driver.run_augment_loop(f);
  ASSERT_EQ(f.recorded_paths().size(), 1u);
  EXPECT_EQ(f.recorded_paths()[0], (std::vector<Vertex>{0, 4, 3, 5}));
}

TEST(StructureForest, NewOuterVertexClearsItsNeighboursCleanBits) {
  // 5 is scanned clean while 4 sits in another structure; the steal brings 4
  // into 5's structure, which makes (5, 4) contractible, so 5 must lose its
  // bit.
  const Graph g = make_graph(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 3}, {5, 4}});
  Matching m(6);
  m.add(1, 2);
  m.add(3, 4);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  GreedyMatchingOracle oracle;
  FrameworkDriver driver(g, oracle, cfg);
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.begin_pass_bundle(1000);
  f.overtake(2, 3, 2);
  driver.run_local_contractions(f);
  EXPECT_TRUE(f.is_contraction_clean(4));
  EXPECT_TRUE(f.is_contraction_clean(5));
  f.check_invariants();

  f.begin_pass_bundle(1000);
  f.overtake(5, 3, 1);  // case 2.2: {3, 4} joins S_5
  EXPECT_FALSE(f.is_contraction_clean(4));
  EXPECT_FALSE(f.is_contraction_clean(5));
  f.check_invariants();
  driver.run_local_contractions(f);
  EXPECT_EQ(f.totals().contracts, 1);
  EXPECT_EQ(f.omega(4), f.omega(5));
  f.check_invariants();
}

TEST(StructureForest, NextEligibleLevelSkipsEmptyLevels) {
  // 0 - 1 = 2 - 3 = 4 and a second root 5 with no arc.
  const Graph g =
      make_graph(6, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  Matching m(6);
  m.add(1, 2);
  m.add(3, 4);
  const CoreConfig cfg = checked_config();
  const int none = cfg.ell_max() + 1;
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);
  EXPECT_EQ(f.next_eligible_level(0), 0);
  EXPECT_EQ(f.next_eligible_level(1), none);
  f.overtake(0, 1, 1);  // S_0 is extended for the rest of the bundle
  EXPECT_EQ(f.next_eligible_level(0), 0);  // S_5 is still at level 0
  f.begin_pass_bundle(1000);
  EXPECT_EQ(f.next_eligible_level(0), 0);
  EXPECT_EQ(f.next_eligible_level(1), 1);  // S_0's working vertex 2
  EXPECT_EQ(f.next_eligible_level(2), none);
  f.begin_pass_bundle(1);  // every structure on hold
  EXPECT_EQ(f.next_eligible_level(0), none);
}

// ---------------------------------------------------------------------------
// Live adjacency: one test per way a vertex becomes or stays outer. Each
// check_invariants call also checks every list against g's rows.
// ---------------------------------------------------------------------------

std::vector<Vertex> live(StructureForest& f, Vertex w) {
  const std::span<const Vertex> s = f.live_neighbors(w);
  return {s.begin(), s.end()};
}

TEST(StructureForest, InitPhaseDropsMatesAndRootsLeaveOnFirstRead) {
  // Roots 0 and 5; 1 = 2 and 3 = 4 matched, with the chord 1 - 3.
  const Graph g = make_graph(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 3}, {3, 5}});
  Matching m(6);
  m.add(1, 2);
  m.add(3, 4);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.check_invariants();  // 1's and 3's lists still hold a root, but are dirty
  EXPECT_EQ(live(f, 0), (std::vector<Vertex>{1}));
  EXPECT_EQ(live(f, 1), (std::vector<Vertex>{3}));     // row 0 2 3
  EXPECT_EQ(live(f, 2), (std::vector<Vertex>{3}));     // row 1 3
  EXPECT_EQ(live(f, 3), (std::vector<Vertex>{1, 2}));  // row 1 2 4 5
  EXPECT_EQ(live(f, 4), (std::vector<Vertex>{}));      // row 3
  EXPECT_EQ(live(f, 5), (std::vector<Vertex>{3}));
  f.check_invariants();
}

TEST(StructureForest, OvertakeCase1NewOuterLeavesNeighbourListsOnNextRead) {
  // 0 - 1 = 2, the triangle 2 - 3 = 4 - 2 and the chord 1 - 3: overtaking
  // (0, 1) makes 1 inner and 2 outer, so 3 keeps 1 and loses 2, 4 loses 2,
  // and 2 keeps the unvisited 3 and 4.
  const Graph g = make_graph(
      5, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {2, 4}, {1, 3}});
  Matching m(5);
  m.add(1, 2);
  m.add(3, 4);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  EXPECT_EQ(live(f, 3), (std::vector<Vertex>{1, 2}));
  EXPECT_EQ(live(f, 4), (std::vector<Vertex>{2}));

  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.check_invariants();
  EXPECT_EQ(live(f, 3), (std::vector<Vertex>{1}));
  EXPECT_EQ(live(f, 4), (std::vector<Vertex>{}));
  EXPECT_EQ(live(f, 1), (std::vector<Vertex>{3}));  // 0 is outer, 2 the mate
  EXPECT_EQ(live(f, 2), (std::vector<Vertex>{3, 4}));
  f.check_invariants();
}

TEST(StructureForest, ContractionsAbsorbedInnerMembersLeaveNeighbourLists) {
  // The 5-cycle 0 - 1 = 2 - 3 = 4 - 0 with the matched pair 5 = 6 hanging
  // off its inner vertices 1 and 3. 5 and 6 keep them while they are inner
  // and lose them once the contraction makes them outer.
  const Graph g = make_graph(7, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4},
                                                  {4, 0}, {1, 5}, {3, 6}, {5, 6}});
  Matching m(7);
  m.add(1, 2);
  m.add(3, 4);
  m.add(5, 6);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.begin_pass_bundle(1000);
  f.overtake(2, 3, 2);
  ASSERT_TRUE(f.is_inner(1));
  ASSERT_TRUE(f.is_inner(3));
  EXPECT_EQ(live(f, 5), (std::vector<Vertex>{1}));
  EXPECT_EQ(live(f, 6), (std::vector<Vertex>{3}));

  f.begin_pass_bundle(1000);
  f.contract(4, 0);
  ASSERT_TRUE(f.is_outer(1));
  ASSERT_TRUE(f.is_outer(3));
  f.check_invariants();
  EXPECT_EQ(live(f, 5), (std::vector<Vertex>{}));
  EXPECT_EQ(live(f, 6), (std::vector<Vertex>{}));
  f.check_invariants();
}

TEST(StructureForest, StealKeepsTheMovedOuterVerticesOut) {
  // The steal of OvertakeCase22StealsSubtreeAndWorkingVertex, plus the
  // matched pair 7 = 8 hanging off 2. 7 loses 2 when 2 becomes outer in
  // S_beta, and the steal that moves 2 to S_alpha does not bring it back;
  // 6 keeps 1, which is inner on both sides of the steal.
  const Graph g = make_graph(
      11, std::vector<Edge>{{10, 5}, {5, 6}, {6, 1}, {1, 2}, {0, 1}, {2, 7}, {7, 8}});
  Matching m(11);
  m.add(5, 6);
  m.add(1, 2);
  m.add(7, 8);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  EXPECT_EQ(live(f, 7), (std::vector<Vertex>{2}));
  f.begin_pass_bundle(1000);
  f.overtake(10, 5, 1);
  f.begin_pass_bundle(1000);
  f.overtake(6, 1, 2);
  EXPECT_EQ(live(f, 7), (std::vector<Vertex>{}));
  EXPECT_EQ(live(f, 6), (std::vector<Vertex>{1}));

  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);  // case 2.2
  ASSERT_EQ(f.totals().overtake_steal, 1);
  ASSERT_EQ(f.structure_of(2), f.structure_of(0));
  f.check_invariants();
  EXPECT_EQ(live(f, 7), (std::vector<Vertex>{}));
  EXPECT_EQ(live(f, 6), (std::vector<Vertex>{1}));
  f.check_invariants();
}

// ---------------------------------------------------------------------------
// Inner-label counts: one test per place an inner member changes.
// ---------------------------------------------------------------------------

/// Expects structure s's inner-label counts to be `want` (label -> count) and
/// 0 at every other label, then has check_invariants recount them.
void expect_inner_counts(const StructureForest& f, const CoreConfig& cfg,
                         StructureId s, const std::map<int, int>& want) {
  for (int l = 0; l <= cfg.ell_max() + 1; ++l) {
    const auto it = want.find(l);
    EXPECT_EQ(f.inner_count(s, l), it == want.end() ? 0 : it->second)
        << "structure " << s << " label " << l;
  }
  f.check_invariants();
}

TEST(StructureForest, InnerCountsFollowCase1Joins) {
  // 0 - 1 = 2 - 3 = 4: 1 joins at label 1, then 3 at label 2.
  const Graph g =
      make_graph(5, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  Matching m(5);
  m.add(1, 2);
  m.add(3, 4);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  const StructureId s = f.structure_of(0);
  expect_inner_counts(f, cfg, s, {});
  EXPECT_FALSE(f.has_inner_above(s, 0));

  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  expect_inner_counts(f, cfg, s, {{1, 1}});
  EXPECT_TRUE(f.has_inner_above(s, 0));
  EXPECT_FALSE(f.has_inner_above(s, 1));

  f.begin_pass_bundle(1000);
  f.overtake(2, 3, 2);
  expect_inner_counts(f, cfg, s, {{1, 1}, {2, 1}});
  EXPECT_TRUE(f.has_inner_above(s, 1));
  EXPECT_FALSE(f.has_inner_above(s, 2));
}

TEST(StructureForest, InnerCountsFollowCase21Relabel) {
  // The chain and branch of OvertakeCase21ReparentsWithinStructure: inner 5
  // falls from label 3 to 2, so no inner member is left above 2.
  const Graph g = make_graph(
      9, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6},
                           {0, 7}, {7, 8}, {8, 5}});
  Matching m(9);
  m.add(1, 2);
  m.add(3, 4);
  m.add(5, 6);
  m.add(7, 8);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  const StructureId s = f.structure_of(0);
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.begin_pass_bundle(1000);
  f.overtake(2, 3, 2);
  f.begin_pass_bundle(1000);
  f.overtake(4, 5, 3);
  for (int i = 0; i < 3; ++i) {
    f.begin_pass_bundle(1000);
    f.backtrack_stuck();
  }
  f.begin_pass_bundle(1000);
  f.overtake(0, 7, 1);
  expect_inner_counts(f, cfg, s, {{1, 2}, {2, 1}, {3, 1}});
  EXPECT_TRUE(f.has_inner_above(s, 2));

  f.begin_pass_bundle(1000);
  f.overtake(8, 5, 2);  // case 2.1
  ASSERT_EQ(f.totals().overtake_same, 1);
  expect_inner_counts(f, cfg, s, {{1, 2}, {2, 2}});
  EXPECT_FALSE(f.has_inner_above(s, 2));
}

TEST(StructureForest, StealMovesInnerCountsBetweenStructures) {
  // S_10: 10 - 5 = 6 - 1 = 2 - 3 = 4 with inner 5, 1, 3 at labels 1, 2, 3.
  // S_0 steals the subtree at 1 through 0 - 1: inner 1 moves and falls to
  // label 1, inner 3 moves with its label 3, inner 5 stays.
  const Graph g = make_graph(
      11, std::vector<Edge>{{10, 5}, {5, 6}, {6, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 1}});
  Matching m(11);
  m.add(5, 6);
  m.add(1, 2);
  m.add(3, 4);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  const StructureId s_alpha = f.structure_of(0);
  const StructureId s_beta = f.structure_of(10);
  f.begin_pass_bundle(1000);
  f.overtake(10, 5, 1);
  f.begin_pass_bundle(1000);
  f.overtake(6, 1, 2);
  f.begin_pass_bundle(1000);
  f.overtake(2, 3, 3);
  expect_inner_counts(f, cfg, s_beta, {{1, 1}, {2, 1}, {3, 1}});
  expect_inner_counts(f, cfg, s_alpha, {});

  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);  // case 2.2
  ASSERT_EQ(f.totals().overtake_steal, 1);
  expect_inner_counts(f, cfg, s_alpha, {{1, 1}, {3, 1}});
  expect_inner_counts(f, cfg, s_beta, {{1, 1}});
  EXPECT_TRUE(f.has_inner_above(s_alpha, 2));
  EXPECT_FALSE(f.has_inner_above(s_beta, 1));
}

TEST(StructureForest, ContractionDropsTheInnerMembersItAbsorbs) {
  // The 5-cycle 0 - 1 = 2 - 3 = 4 - 0 with the branch 2 - 5 = 6 and the arc
  // 6 - 4. Contracting the cycle absorbs inner 1 and 3 and leaves the
  // hanging inner 5; a second contraction, (6, 4), then nests the first
  // blossom and absorbs 5. Each reset zeroes only its cycle's matched edges,
  // and check_invariants confirms every matched arc inside a blossom is 0.
  const Graph g = make_graph(
      7, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {2, 5}, {5, 6},
                           {6, 4}});
  Matching m(7);
  m.add(1, 2);
  m.add(3, 4);
  m.add(5, 6);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  const StructureId s = f.structure_of(0);
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.begin_pass_bundle(1000);
  f.overtake(2, 5, 2);
  f.begin_pass_bundle(1000);
  f.backtrack_stuck();  // working vertex back to Omega(2)
  f.begin_pass_bundle(1000);
  f.overtake(2, 3, 2);
  expect_inner_counts(f, cfg, s, {{1, 1}, {2, 2}});

  f.begin_pass_bundle(1000);
  ASSERT_TRUE(f.can_contract(4, 0));
  f.contract(4, 0);
  expect_inner_counts(f, cfg, s, {{2, 1}});
  for (const Vertex v : {1, 2, 3, 4}) EXPECT_EQ(f.label(v), 0) << v;
  EXPECT_EQ(f.label(5), 2);
  EXPECT_EQ(f.label(6), cfg.ell_max() + 1);

  f.begin_pass_bundle(1000);
  f.overtake(2, 5, 1);  // case 2.1 from the blossom at level 0
  expect_inner_counts(f, cfg, s, {{1, 1}});
  f.begin_pass_bundle(1000);
  ASSERT_TRUE(f.can_contract(6, 4));
  f.contract(6, 4);
  expect_inner_counts(f, cfg, s, {});
  for (Vertex v = 1; v <= 6; ++v) EXPECT_EQ(f.label(v), 0) << v;
  EXPECT_EQ(f.arena().vertex_count(f.omega(0)), 7);
}

TEST(StructureForest, LabelsPastTheLastBucketShareIt) {
  // eps 0.02 gives l_max 150: labels from kLabelBuckets - 1 = 63 up share
  // one count, so has_inner_above stays exact below it and turns
  // conservative above it.
  const Graph g = make_graph(5, std::vector<Edge>{{0, 1}, {1, 2}, {4, 3}});
  Matching m(5);
  m.add(1, 2);
  const CoreConfig cfg = checked_config(0.02);
  ASSERT_EQ(cfg.ell_max(), 150);
  StructureForest f(g, m, cfg);
  f.init_phase();
  const StructureId s0 = f.structure_of(0);
  const StructureId s4 = f.structure_of(4);
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 100);
  f.check_invariants();
  EXPECT_EQ(f.inner_count(s0, 100), 1);
  EXPECT_EQ(f.inner_count(s0, StructureForest::kLabelBuckets - 1), 1);
  EXPECT_EQ(f.inner_count(s0, StructureForest::kLabelBuckets - 2), 0);
  EXPECT_TRUE(f.has_inner_above(s0, StructureForest::kLabelBuckets - 2));
  EXPECT_TRUE(f.has_inner_above(s0, 120));  // conservative: 100 < 120
  EXPECT_FALSE(f.has_inner_above(s4, 0));
}

// ---------------------------------------------------------------------------
// Right-node lists: one test per event that changes what a list must hold.
// Each check_invariants call also checks every list against a walk of its
// blossom's run.
// ---------------------------------------------------------------------------

/// (x, first witness, count) of each entry, as a sweep reads them.
using Entry = std::tuple<Vertex, Vertex, std::int32_t>;
std::vector<Entry> right_nodes(StructureForest& f, BlossomId b) {
  std::vector<Entry> out;
  for (const RightNode& e : f.read_right_nodes(b)) out.emplace_back(e.x, e.w, e.count);
  return out;
}

/// Records the size of each graph it is handed and matches nothing, so a
/// sweep run through it shows H'_s and changes no structure.
class NullOracle final : public MatchingOracle {
 public:
  [[nodiscard]] double approx_factor() const override { return 2.0; }
  std::vector<std::pair<std::int32_t, std::size_t>> seen;  ///< (n, edges)

 protected:
  OracleMatching find_impl(const OracleGraph& h) override {
    seen.emplace_back(h.n, h.edges.size());
    return {};
  }
};

TEST(StructureForest, OvertakeCase1NewOuterLeavesEveryList) {
  // Roots 0 and 5 both see the matched pair 1 = 2, and 2 sees 3 = 4.
  // Overtaking (0, 1) makes 2 outer: it leaves both roots' lists, 1 stays in
  // both as an inner vertex, and 2's own list holds the unvisited 3.
  const Graph g = make_graph(
      6, std::vector<Edge>{{0, 1}, {0, 2}, {5, 1}, {5, 2}, {1, 2}, {2, 3}, {3, 4}});
  Matching m(6);
  m.add(1, 2);
  m.add(3, 4);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  EXPECT_EQ(right_nodes(f, f.omega(0)), (std::vector<Entry>{{1, 0, 1}, {2, 0, 1}}));
  EXPECT_EQ(right_nodes(f, f.omega(5)), (std::vector<Entry>{{1, 5, 1}, {2, 5, 1}}));
  f.check_invariants();

  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.check_invariants();  // both lists still hold 2 until their next read
  EXPECT_EQ(right_nodes(f, f.omega(0)), (std::vector<Entry>{{1, 0, 1}}));
  EXPECT_EQ(right_nodes(f, f.omega(5)), (std::vector<Entry>{{1, 5, 1}}));
  EXPECT_EQ(right_nodes(f, f.omega(2)), (std::vector<Entry>{{3, 2, 1}}));
  f.check_invariants();
}

TEST(StructureForest, ListsKeepLabelFilteredEntriesAcrossCase21Relabels) {
  // One structure rooted at 0 with two branches: 0 - 1 = 2 - ... - 9 = 10,
  // where the shortcut 4 - 9 relabels 9 from 5 to 3, and 0 - 11 = 12 - 13 =
  // 14 - 15 = 16, whose tip B = Omega(16) sees 9. At B's level 3, label 3 is
  // not above 3 + 1, so the sweep hides 9; the shortcut 0 - 15 then relabels
  // B's inner parent 15 to 1, and at level 1 the sweep shows 9 again from
  // the same list.
  const Graph g = make_graph(
      17, std::vector<Edge>{{0, 1},   {1, 2},   {2, 3},   {3, 4},   {4, 5},
                            {5, 6},   {6, 7},   {7, 8},   {8, 9},   {9, 10},
                            {4, 9},   {0, 11},  {11, 12}, {12, 13}, {13, 14},
                            {14, 15}, {15, 16}, {16, 9},  {0, 15}});
  Matching m(17);
  for (Vertex v = 1; v < 17; v += 2) m.add(v, v + 1);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  const auto overtake = [&](Vertex u, Vertex v, int k) {
    f.begin_pass_bundle(1000);
    ASSERT_TRUE(f.can_overtake(u, v, k)) << u << " " << v;
    f.overtake(u, v, k);
  };
  const auto backtrack = [&](int times) {
    for (int i = 0; i < times; ++i) {
      f.begin_pass_bundle(1000);
      f.backtrack_stuck();
    }
  };
  for (Vertex u = 0; u < 10; u += 2) overtake(u, u + 1, u / 2 + 1);
  ASSERT_EQ(f.label(9), 5);
  backtrack(3);
  ASSERT_EQ(f.structure(0).working, f.omega(4));
  overtake(4, 9, 3);  // case 2.1
  ASSERT_EQ(f.label(9), 3);
  backtrack(3);
  overtake(0, 11, 1);
  overtake(12, 13, 2);
  overtake(14, 15, 3);
  const BlossomId b = f.omega(16);
  ASSERT_EQ(f.structure(0).working, b);
  ASSERT_EQ(f.outer_level(b), 3);
  f.check_invariants();

  NullOracle oracle;
  FrameworkDriver driver(g, oracle, cfg);
  f.begin_pass_bundle(1000);
  driver.extend_active_path(f);
  EXPECT_TRUE(oracle.seen.empty());  // H'_s has no edge: 9 is hidden
  EXPECT_EQ(right_nodes(f, b), (std::vector<Entry>{{9, 16, 1}}));
  f.check_invariants();

  backtrack(3);
  ASSERT_EQ(f.structure(0).working, f.omega(0));
  overtake(0, 15, 1);  // case 2.1 on B's inner parent
  ASSERT_EQ(f.structure(0).working, b);
  ASSERT_EQ(f.outer_level(b), 1);
  f.begin_pass_bundle(1000);
  driver.extend_active_path(f);
  // One left node (B) and one right node (9).
  EXPECT_EQ(oracle.seen, (std::vector<std::pair<std::int32_t, std::size_t>>{{2, 1}}));
  EXPECT_EQ(right_nodes(f, b), (std::vector<Entry>{{9, 16, 1}}));
  f.check_invariants();
}

TEST(StructureForest, StolenBlossomKeepsItsList) {
  // The steal of StealKeepsTheMovedOuterVerticesOut: S_beta's working
  // Omega(2), whose list holds the unvisited 7, moves to S_alpha with it.
  const Graph g = make_graph(
      11, std::vector<Edge>{{10, 5}, {5, 6}, {6, 1}, {1, 2}, {0, 1}, {2, 7}, {7, 8}});
  Matching m(11);
  m.add(5, 6);
  m.add(1, 2);
  m.add(7, 8);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);
  f.overtake(10, 5, 1);
  f.begin_pass_bundle(1000);
  f.overtake(6, 1, 2);
  const BlossomId b = f.omega(2);
  EXPECT_EQ(right_nodes(f, b), (std::vector<Entry>{{7, 2, 1}}));

  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);  // case 2.2
  ASSERT_EQ(f.totals().overtake_steal, 1);
  ASSERT_EQ(f.structure(f.structure_of(0)).working, b);
  EXPECT_TRUE(f.holds_right_nodes(b));
  f.check_invariants();
  EXPECT_EQ(right_nodes(f, b), (std::vector<Entry>{{7, 2, 1}}));
  f.check_invariants();
}

/// The 5-cycle 0 - 1 = 2 - 3 = 4 - 0 with the matched pairs 5 = 6 (seen by 0
/// and 4) and 7 = 8 (seen by 2 and 4); the blossom's run is 0, 1, 2, 3, 4.
Graph cycle_with_pairs(Matching& m) {
  m.add(1, 2);
  m.add(3, 4);
  m.add(5, 6);
  m.add(7, 8);
  return make_graph(9, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 5},
                                         {4, 5}, {2, 7}, {4, 7}, {5, 6}, {7, 8}});
}

TEST(StructureForest, ContractionMovesAZerosListAndAppendsTheRest) {
  // A_0 = Omega(0) holds a list from the first sweep: the blossom takes it,
  // drops the now-outer 1 and 4, adds 4's arc to 5 and appends 7.
  Matching m(9);
  const Graph g = cycle_with_pairs(m);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  EXPECT_EQ(right_nodes(f, f.omega(0)),
            (std::vector<Entry>{{1, 0, 1}, {4, 0, 1}, {5, 0, 1}}));
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.begin_pass_bundle(1000);
  f.overtake(2, 3, 2);
  f.begin_pass_bundle(1000);
  f.contract(4, 0);
  const BlossomId b = f.omega(0);
  EXPECT_TRUE(f.holds_right_nodes(BlossomArena::trivial(0)));
  f.check_invariants();
  EXPECT_EQ(right_nodes(f, b), (std::vector<Entry>{{5, 0, 2}, {7, 2, 2}}));
  EXPECT_FALSE(f.holds_right_nodes(BlossomArena::trivial(0)));
  f.check_invariants();
}

TEST(StructureForest, ContractionWithoutAZerosListWalksItAndMergesTheRest) {
  // Only the cycle's last child, Omega(4), holds a list. The blossom walks
  // 0 to 3 and merges 4's entries in: the first witnesses stay 0 and 2.
  Matching m(9);
  const Graph g = cycle_with_pairs(m);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.begin_pass_bundle(1000);
  f.overtake(2, 3, 2);
  EXPECT_EQ(right_nodes(f, f.omega(4)), (std::vector<Entry>{{5, 4, 1}, {7, 4, 1}}));
  f.begin_pass_bundle(1000);
  f.contract(4, 0);
  const BlossomId b = f.omega(0);
  f.check_invariants();
  EXPECT_EQ(right_nodes(f, b), (std::vector<Entry>{{5, 0, 2}, {7, 2, 2}}));
  EXPECT_FALSE(f.holds_right_nodes(BlossomArena::trivial(4)));
  f.check_invariants();
}

TEST(StructureForest, AugmentRemovesItsStructuresFromEveryList) {
  // Root 5 sees 0's inner 1 and the unvisited 3 = 4; augmenting 0's
  // structure with root 6's removes 1 from 5's list.
  const Graph g = make_graph(
      7, std::vector<Edge>{{0, 1}, {1, 2}, {2, 6}, {5, 1}, {5, 3}, {3, 4}});
  Matching m(7);
  m.add(1, 2);
  m.add(3, 4);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  EXPECT_EQ(right_nodes(f, f.omega(5)), (std::vector<Entry>{{1, 5, 1}, {3, 5, 1}}));
  ASSERT_TRUE(f.can_augment(2, 6));
  f.augment(2, 6);
  ASSERT_TRUE(f.is_removed(1));
  f.check_invariants();
  EXPECT_EQ(right_nodes(f, f.omega(5)), (std::vector<Entry>{{3, 5, 1}}));
  f.check_invariants();
}

}  // namespace
}  // namespace bmf
