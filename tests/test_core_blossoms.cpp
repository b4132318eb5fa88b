#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/blossoms.hpp"
#include "matching/matching.hpp"
#include "util/rng.hpp"

namespace bmf {
namespace {

/// Checks that `path` alternates unmatched/matched/... (starting unmatched)
/// and has an even number of edges — the Lemma 3.5 guarantee.
void expect_even_alternating(const std::vector<Vertex>& path, const Matching& m) {
  ASSERT_EQ(path.size() % 2, 1u) << "odd edge count";
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const bool should_be_matched = (i % 2 == 1);
    EXPECT_EQ(m.has(path[i], path[i + 1]), should_be_matched)
        << "edge " << i << ": " << path[i] << "-" << path[i + 1];
  }
}

TEST(BlossomArena, ResetMakesTrivialBlossoms) {
  BlossomArena arena;
  arena.reset(5);
  EXPECT_EQ(arena.num_blossoms(), 5);
  for (Vertex v = 0; v < 5; ++v) {
    EXPECT_EQ(arena.omega(v), v);
    EXPECT_EQ(arena.base(v), v);
    EXPECT_TRUE(arena.node(v).is_trivial());
    EXPECT_EQ(arena.vertex_count(v), 1);
  }
}

class TriangleBlossom : public ::testing::Test {
 protected:
  void SetUp() override {
    arena.reset(3);
    m = Matching(3);
    m.add(1, 2);
    // Cycle 0-1-2-0; e_0 = {0,1} unmatched, e_1 = {1,2} matched,
    // e_2 = {2,0} unmatched; base = 0.
    b = arena.make_composite({0, 1, 2}, {{0, 1}, {1, 2}, {2, 0}});
  }
  BlossomArena arena;
  Matching m;
  BlossomId b = kNoBlossom;
};

TEST_F(TriangleBlossom, OmegaResolvesToComposite) {
  for (Vertex v = 0; v < 3; ++v) EXPECT_EQ(arena.omega(v), b);
  EXPECT_EQ(arena.base(b), 0);
  EXPECT_EQ(arena.vertex_count(b), 3);
  EXPECT_EQ(arena.depth(0), 1);
}

TEST_F(TriangleBlossom, EvenPathToEachVertex) {
  EXPECT_EQ(arena.even_path(b, 0), (std::vector<Vertex>{0}));
  const auto p1 = arena.even_path(b, 1);
  EXPECT_EQ(p1, (std::vector<Vertex>{0, 2, 1}));
  expect_even_alternating(p1, m);
  const auto p2 = arena.even_path(b, 2);
  EXPECT_EQ(p2, (std::vector<Vertex>{0, 1, 2}));
  expect_even_alternating(p2, m);
}

class NestedBlossom : public ::testing::Test {
 protected:
  void SetUp() override {
    arena.reset(7);
    m = Matching(7);
    m.add(1, 2);
    m.add(3, 4);
    m.add(5, 6);
    inner = arena.make_composite({0, 1, 2}, {{0, 1}, {1, 2}, {2, 0}});
    // 5-cycle of children [inner, 3, 4, 5, 6]:
    // e_0 = {2,3} unmatched, e_1 = {3,4} matched, e_2 = {4,5} unmatched,
    // e_3 = {5,6} matched, e_4 = {6,1} unmatched. Base stays 0.
    outer = arena.make_composite({inner, 3, 4, 5, 6},
                                 {{2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 1}});
  }
  BlossomArena arena;
  Matching m;
  BlossomId inner = kNoBlossom, outer = kNoBlossom;
};

TEST_F(NestedBlossom, OmegaAndCounts) {
  for (Vertex v = 0; v < 7; ++v) EXPECT_EQ(arena.omega(v), outer);
  EXPECT_EQ(arena.base(outer), 0);
  EXPECT_EQ(arena.vertex_count(outer), 7);
  EXPECT_EQ(arena.depth(1), 2);
  EXPECT_EQ(arena.depth(4), 1);
}

TEST_F(NestedBlossom, EvenPathsThroughNesting) {
  for (Vertex target = 0; target < 7; ++target) {
    const auto p = arena.even_path(outer, target);
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p.front(), 0);
    EXPECT_EQ(p.back(), target);
    expect_even_alternating(p, m);
    // Simplicity: no repeated vertices.
    auto sorted = p;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  }
}

TEST_F(NestedBlossom, ForwardAndBackwardDirections) {
  // Forward (even cycle index): target 6 sits in cycle slot 4.
  EXPECT_EQ(arena.even_path(outer, 6), (std::vector<Vertex>{0, 1, 2, 3, 4, 5, 6}));
  // Backward (odd cycle index): target 3 sits in cycle slot 1.
  EXPECT_EQ(arena.even_path(outer, 3), (std::vector<Vertex>{0, 2, 1, 6, 5, 4, 3}));
}

/// Omega(v) by its definition: walk the laminar parent chain up from v's
/// trivial blossom.
BlossomId omega_by_parent_walk(const BlossomArena& arena, Vertex v) {
  BlossomId b = BlossomArena::trivial(v);
  while (arena.node(b).parent != kNoBlossom) b = arena.node(b).parent;
  return b;
}

void expect_root_cache_matches_walk(const BlossomArena& arena) {
  for (Vertex v = 0; v < arena.num_vertices(); ++v)
    ASSERT_EQ(arena.omega(v), omega_by_parent_walk(arena, v)) << "v=" << v;
}

/// Blossom order by its definition: the cycle children depth-first, A_0
/// first.
void collect_by_recursion(const BlossomArena& arena, BlossomId b,
                          std::vector<Vertex>& out) {
  const BlossomNode& nb = arena.node(b);
  if (nb.is_trivial()) {
    out.push_back(nb.vert);
    return;
  }
  for (BlossomId child : nb.cycle) collect_by_recursion(arena, child, out);
}

/// Each root's run visits its vertices in blossom order, and its stored
/// count is the recursive one.
void expect_runs_match_recursion(const BlossomArena& arena,
                                 const std::vector<BlossomId>& roots) {
  for (const BlossomId b : roots) {
    std::vector<Vertex> expected;
    collect_by_recursion(arena, b, expected);
    ASSERT_EQ(arena.vertices(b), expected) << "b=" << b;
    ASSERT_EQ(arena.vertex_count(b), static_cast<std::int64_t>(expected.size()))
        << "b=" << b;
  }
}

TEST(BlossomArenaRootCache, MatchesParentWalkOnRandomLaminarFamilies) {
  // After every composite, each root's omega, vertex run and count must
  // match their definitions. The shuffled cycles put the largest child, the
  // one whose root group the composite keeps, at every cycle position, so
  // the relabelling of the other children is checked on both sides of it.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const auto n = static_cast<Vertex>(3 + rng.next_below(60));
    BlossomArena arena;
    arena.reset(n);
    expect_root_cache_matches_walk(arena);

    // Contract random odd groups of current roots (3, 5 or 7 of them) until
    // fewer than three roots are left, so composites nest inside composites.
    std::vector<BlossomId> roots(static_cast<std::size_t>(n));
    std::iota(roots.begin(), roots.end(), 0);
    while (roots.size() >= 3) {
      rng.shuffle(roots);
      const std::size_t choices = std::min<std::size_t>(3, (roots.size() - 1) / 2);
      const std::size_t k = 3 + 2 * static_cast<std::size_t>(rng.next_below(choices));
      const std::vector<BlossomId> cycle(roots.end() - static_cast<std::ptrdiff_t>(k),
                                         roots.end());
      roots.resize(roots.size() - k);
      std::vector<Edge> cycle_edges;
      std::int64_t expected_count = 0;
      for (std::size_t j = 0; j < k; ++j) {
        cycle_edges.push_back({arena.base(cycle[j]), arena.base(cycle[(j + 1) % k])});
        expected_count += arena.vertex_count(cycle[j]);
      }
      const BlossomId b = arena.make_composite(cycle, std::move(cycle_edges));
      roots.push_back(b);
      EXPECT_EQ(arena.vertex_count(b), expected_count);
      expect_root_cache_matches_walk(arena);
      expect_runs_match_recursion(arena, roots);
    }

    // A reset to another size restores the identity, larger or smaller.
    for (const Vertex n2 : {static_cast<Vertex>(n + 7), static_cast<Vertex>(n / 2)}) {
      arena.reset(n2);
      ASSERT_EQ(arena.num_blossoms(), n2);
      for (Vertex v = 0; v < n2; ++v) ASSERT_EQ(arena.omega(v), v);
    }
  }
}

TEST(BlossomArenaDeath, CompositeNeedsOddCycle) {
#ifdef BMF_ASSERTS
  BlossomArena arena;
  arena.reset(4);
  Matching m(4);
  EXPECT_DEATH(arena.make_composite({0, 1}, {{0, 1}, {1, 0}}), "ASSERT");
#else
  GTEST_SKIP() << "assertions disabled";
#endif
}

}  // namespace
}  // namespace bmf
