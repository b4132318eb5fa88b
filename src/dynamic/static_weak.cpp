#include "dynamic/static_weak.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace bmf {
namespace {

CoreConfig make_fallback_config(const CoreConfig& core) {
  CoreConfig cfg = core;
  cfg.iteration_mode = IterationMode::kUntilEmpty;
  return cfg;
}

}  // namespace

WeakOracleDriver::WeakOracleDriver(const Graph& g, WeakOracle& oracle,
                                   const WeakSimConfig& cfg, std::uint64_t seed)
    : g_(g),
      oracle_(oracle),
      cfg_(cfg),
      rng_(seed),
      fallback_cfg_(make_fallback_config(cfg.core)),
      fallback_(g, fallback_oracle_, fallback_cfg_) {}

bool WeakOracleDriver::exhaustive() const {
  return cfg_.strict && cfg_.exhaustive_fallback && fallback_.exhaustive();
}

void WeakOracleDriver::begin_phase(StructureForest& forest) {
  // Unvisited matched vertices at phase start: every matched vertex (free
  // vertices root their own structures). Filtered lazily as they get visited.
  unvisited_pool_.clear();
  const Matching& m = forest.matching();
  for (Vertex v = 0; v < g_.num_vertices(); ++v)
    if (m.mate(v) != kNoVertex) unvisited_pool_.push_back(v);
}

void WeakOracleDriver::in_structure_sweep(StructureForest& forest, int stage) {
  // Invariant 6.10: no s-feasible arc connects two vertices of the same
  // structure when the sampled iterations begin.
  for (StructureId sid = 0; sid < forest.num_structures(); ++sid) {
    const StructureInfo& si = forest.structure(sid);
    if (si.removed || si.on_hold || si.extended || si.working == kNoBlossom)
      continue;
    if (forest.outer_level(si.working) != stage) continue;
    bool done = false;
    scan_.clear();
    forest.arena().collect_vertices(si.working, scan_);
    for (Vertex w : scan_) {
      for (Vertex x : g_.neighbors(w)) {
        if (forest.structure_of(x) != sid) continue;
        if (!forest.is_inner(x) || forest.label(x) <= stage + 1) continue;
        if (forest.can_overtake(w, x, stage + 1)) {
          forest.overtake(w, x, stage + 1);
          done = true;  // the structure is extended now
          break;
        }
      }
      if (done) break;
    }
  }
}

void WeakOracleDriver::run_overtake_stage(StructureForest& forest, int stage) {
  in_structure_sweep(forest, stage);

  int stall = 0;
  std::int64_t iterations = 0;
  while (stall < cfg_.sample_patience && iterations < cfg_.max_stage_iterations) {
    // Eligible left-hand structures at this stage (Definition 5.8 via
    // Section 6.6 sampling rules).
    bool any_eligible = false;
    for (StructureId sid = 0; sid < forest.num_structures(); ++sid) {
      const StructureInfo& si = forest.structure(sid);
      if (si.removed || si.on_hold || si.extended || si.working == kNoBlossom)
        continue;
      if (forest.outer_level(si.working) == stage) {
        any_eligible = true;
        break;
      }
    }
    if (!any_eligible) break;

    std::vector<Vertex> s_plus, s_minus;
    for (StructureId sid = 0; sid < forest.num_structures(); ++sid) {
      const StructureInfo& si = forest.structure(sid);
      if (si.removed) continue;
      const Vertex sample = si.members[static_cast<std::size_t>(
          rng_.next_below(si.members.size()))];
      if (!si.on_hold && !si.extended && si.working != kNoBlossom &&
          forest.outer_level(si.working) == stage && forest.is_outer(sample) &&
          forest.omega(sample) == si.working) {
        s_plus.push_back(sample);
      } else if (forest.is_inner(sample) && forest.label(sample) > stage + 1) {
        s_minus.push_back(sample);
      }
    }
    // Unvisited matched vertices join as singleton regions.
    std::erase_if(unvisited_pool_,
                  [&](Vertex v) { return !forest.is_unvisited(v); });
    for (Vertex v : unvisited_pool_)
      if (forest.label(v) > stage + 1) s_minus.push_back(v);

    if (s_plus.empty() || s_minus.empty()) break;
    const WeakQueryResult res = oracle_.query_cover(s_plus, s_minus, cfg_.delta);
    ++sampled_iterations_;
    ++iterations;
    const bool usable = cfg_.strict || !res.bottom;
    std::int64_t applied = 0;
    if (usable) {
      for (const Edge& e : res.matching) {
        // Re-derive k from the overtaker's current level; can_overtake
        // re-validates everything else.
        if (forest.structure_of(e.u) == kNoStructure) continue;
        const StructureInfo& si =
            forest.structure(forest.structure_of(e.u));
        if (si.working == kNoBlossom || forest.omega(e.u) != si.working) continue;
        const int k = forest.outer_level(si.working) + 1;
        if (forest.can_overtake(e.u, e.v, k)) {
          forest.overtake(e.u, e.v, k);
          ++applied;
        }
      }
    }
    if (applied == 0)
      ++stall;
    else
      stall = 0;
  }
}

void WeakOracleDriver::extend_active_path(StructureForest& forest) {
  const int lmax = cfg_.core.ell_max();
  for (int s = 0; s <= lmax; ++s) run_overtake_stage(forest, s);
  if (cfg_.exhaustive_fallback) fallback_.extend_active_path(forest);
}

void WeakOracleDriver::contract_and_augment(StructureForest& forest) {
  // Step 1 (Section 6.5): exhaust type-1 arcs by scanning in-structure edges;
  // this is O(n * Delta^2) local work, no oracle involved. Sampled augments
  // below only retire structures, which creates no type-1 arc, so the
  // exhaustion sweep at the end runs step 2 alone.
  fallback_.run_local_contractions(forest);

  // Step 2: sampled Augment iterations — one uniformly random *outer* vertex
  // per structure, A_weak on G[S] (Figure 4).
  int stall = 0;
  std::int64_t iterations = 0;
  std::vector<Vertex> outer_members;
  while (stall < cfg_.sample_patience && iterations < cfg_.max_stage_iterations) {
    std::vector<Vertex> sample_set;
    std::int64_t live = 0;
    for (StructureId sid = 0; sid < forest.num_structures(); ++sid) {
      const StructureInfo& si = forest.structure(sid);
      if (si.removed) continue;
      ++live;
      outer_members.clear();
      for (Vertex w : si.members)
        if (forest.is_outer(w)) outer_members.push_back(w);
      BMF_ASSERT(!outer_members.empty());  // the root is always outer
      sample_set.push_back(outer_members[static_cast<std::size_t>(
          rng_.next_below(outer_members.size()))]);
    }
    if (live < 2) break;
    const WeakQueryResult res = oracle_.query(sample_set, cfg_.delta);
    ++sampled_iterations_;
    ++iterations;
    const bool usable = cfg_.strict || !res.bottom;
    std::int64_t applied = 0;
    if (usable) {
      for (const Edge& e : res.matching) {
        if (forest.can_augment(e.u, e.v)) {
          forest.augment(e.u, e.v);
          ++applied;
        }
      }
    }
    if (applied == 0)
      ++stall;
    else
      stall = 0;
  }

  if (cfg_.exhaustive_fallback) fallback_.run_augment_loop(forest);
}

Matching weak_initial_matching(Vertex n, WeakOracle& oracle,
                               const WeakSimConfig& cfg) {
  Matching m(n);
  for (;;) {
    const std::vector<Vertex> free = m.free_vertices();
    if (free.size() < 2) break;
    const WeakQueryResult res = oracle.query(free, cfg.delta);
    if (res.matching.empty()) break;
    if (!cfg.strict && res.bottom) break;
    for (const Edge& e : res.matching)
      if (m.is_free(e.u) && m.is_free(e.v)) m.add(e.u, e.v);
  }
  return m;
}

WeakBoostResult static_weak_boost(const Graph& g, Matching m, WeakOracle& oracle,
                                  const WeakSimConfig& cfg) {
  WeakBoostResult result{std::move(m), {}, 0, 0, 0};
  const std::int64_t calls_before = oracle.calls();
  WeakOracleDriver driver(g, oracle, cfg, cfg.core.seed);
  PhaseEngine engine(g, cfg.core);
  result.outcome = engine.run(result.matching, driver);
  result.weak_calls = oracle.calls() - calls_before;
  result.sampled_iterations = driver.sampled_iterations();
  result.sweep_rounds = driver.fallback_stats().sweep_rounds;
  result.sweep_arcs = driver.fallback_stats().sweep_arcs;
  return result;
}

WeakBoostResult static_weak_matching(const Graph& g, WeakOracle& oracle,
                                     const WeakSimConfig& cfg) {
  const std::int64_t calls_before = oracle.calls();
  Matching initial = weak_initial_matching(g.num_vertices(), oracle, cfg);
  const std::int64_t initial_calls = oracle.calls() - calls_before;
  WeakBoostResult result =
      static_weak_boost(g, std::move(initial), oracle, cfg);
  result.initial_weak_calls = initial_calls;
  result.weak_calls += initial_calls;
  return result;
}

}  // namespace bmf
