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
  pool_visits_ = forest.totals().overtake_unvisited;
}

void WeakOracleDriver::in_structure_sweep(StructureForest& forest, int stage) {
  // Invariant 6.10: no s-feasible arc connects two vertices of the same
  // structure when the sampled iterations begin.
  for (StructureId sid = 0; sid < forest.num_structures(); ++sid) {
    const StructureInfo& si = forest.structure(sid);
    if (si.removed || si.on_hold || si.extended || si.working == kNoBlossom)
      continue;
    if (forest.outer_level(si.working) != stage) continue;
    // (P3) needs an inner member x of this structure with label(x) > stage + 1;
    // without one no (w, x) can overtake, so the scan is skipped.
    if (!forest.has_inner_above(sid, stage + 1)) continue;
    // The scan walks the working blossom's run in place and reads w's live
    // adjacency, which has dropped w's mate and only neighbours that are
    // outer or removed, so it meets the same inner x in g's order. The
    // overtake below only sets flags in the forest, so the span stays valid
    // until the walk stops right after it.
    forest.arena().find_vertex(si.working, [&](Vertex w) {
      for (Vertex x : forest.live_neighbors(w)) {
        if (forest.structure_of(x) != sid) continue;
        if (!forest.is_inner(x) || forest.label(x) <= stage + 1) continue;
        if (forest.can_overtake(w, x, stage + 1)) {
          forest.overtake(w, x, stage + 1);
          return true;  // the structure is extended now
        }
      }
      return false;
    });
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

    s_plus_.clear();
    s_minus_.clear();
    for (StructureId sid = 0; sid < forest.num_structures(); ++sid) {
      const StructureInfo& si = forest.structure(sid);
      if (si.removed) continue;
      const Vertex sample = si.members[static_cast<std::size_t>(
          rng_.next_below(si.members.size()))];
      if (!si.on_hold && !si.extended && si.working != kNoBlossom &&
          forest.outer_level(si.working) == stage && forest.is_outer(sample) &&
          forest.omega(sample) == si.working) {
        s_plus_.push_back(sample);
      } else if (forest.is_inner(sample) && forest.label(sample) > stage + 1) {
        s_minus_.push_back(sample);
      }
    }
    // Unvisited matched vertices join as singleton regions. Only Overtake
    // case 1 visits a vertex, so the pool is compacted only after one ran.
    if (forest.totals().overtake_unvisited != pool_visits_) {
      std::erase_if(unvisited_pool_,
                    [&](Vertex v) { return !forest.is_unvisited(v); });
      pool_visits_ = forest.totals().overtake_unvisited;
    }
    for (Vertex v : unvisited_pool_)
      if (forest.label(v) > stage + 1) s_minus_.push_back(v);

    if (s_plus_.empty() || s_minus_.empty()) break;
    const WeakQueryResult res = oracle_.query_cover(s_plus_, s_minus_, cfg_.delta);
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
  // A stage with no eligible structure at its level neither sweeps nor draws
  // a random number, so only the eligible levels run.
  const int lmax = cfg_.core.ell_max();
  for (int s = forest.next_eligible_level(0); s <= lmax;
       s = forest.next_eligible_level(s + 1))
    run_overtake_stage(forest, s);
  if (cfg_.exhaustive_fallback) fallback_.extend_active_path(forest);
}

void WeakOracleDriver::contract_and_augment(StructureForest& forest) {
  // Step 1 (Section 6.5): exhaust type-1 arcs by scanning in-structure edges;
  // this is O(n * Delta^2) local work, no oracle involved. Sampled augments
  // below only retire structures, which creates no type-1 arc, so the
  // exhaustion sweep at the end runs step 2 alone.
  fallback_.run_local_contractions(forest);
  run_sampled_augments(forest);
  if (cfg_.exhaustive_fallback) fallback_.run_augment_loop(forest);
}

void WeakOracleDriver::run_sampled_augments(StructureForest& forest) {
  // Step 2: sampled Augment iterations — one uniformly random *outer* vertex
  // per structure, A_weak on G[S] (Figure 4).
  //
  // With fewer than two live structures the loop below stops before its
  // first query, after one draw for a lone structure (none if the loop does
  // not start). The draw only needs the structure's outer count, which its
  // inner-label counts give without filtering the members.
  std::int64_t live = 0;
  StructureId lone = kNoStructure;
  for (StructureId sid = 0; sid < forest.num_structures() && live < 2; ++sid) {
    if (forest.structure(sid).removed) continue;
    ++live;
    lone = sid;
  }
  if (live < 2) {
    if (live == 1 && cfg_.sample_patience > 0 && cfg_.max_stage_iterations > 0)
      (void)rng_.next_below(static_cast<std::uint64_t>(forest.outer_count(lone)));
    return;
  }

  // Only augments run in this loop, and an augment only retires structures:
  // every live structure keeps its outer members, in member order, so each
  // list is filtered once up front.
  outer_members_.clear();
  outer_begin_.clear();
  for (StructureId sid = 0; sid < forest.num_structures(); ++sid) {
    outer_begin_.push_back(outer_members_.size());
    const StructureInfo& si = forest.structure(sid);
    if (si.removed) continue;
    for (Vertex w : si.members)
      if (forest.is_outer(w)) outer_members_.push_back(w);
    BMF_ASSERT(outer_members_.size() > outer_begin_.back());  // the root is outer
  }
  outer_begin_.push_back(outer_members_.size());

  int stall = 0;
  std::int64_t iterations = 0;
  while (stall < cfg_.sample_patience && iterations < cfg_.max_stage_iterations) {
    sample_set_.clear();
    std::int64_t live = 0;
    for (StructureId sid = 0; sid < forest.num_structures(); ++sid) {
      if (forest.structure(sid).removed) continue;
      ++live;
      const std::size_t begin = outer_begin_[static_cast<std::size_t>(sid)];
      const std::size_t count = outer_begin_[static_cast<std::size_t>(sid) + 1] - begin;
      sample_set_.push_back(outer_members_[begin + rng_.next_below(count)]);
    }
    if (live < 2) break;
    const WeakQueryResult res = oracle_.query(sample_set_, cfg_.delta);
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
}

Matching weak_initial_matching(Vertex n, WeakOracle& oracle,
                               const WeakSimConfig& cfg) {
  Matching m(n);
  for (;;) {
    const std::vector<Vertex> free = m.free_vertices();
    if (free.size() < 2) break;
    const WeakQueryResult res = oracle.query(free, cfg.delta);
    if (!cfg.strict && res.bottom) break;
    // Only a pair of distinct free vertices can join the matching. An answer
    // that applies none is out of contract, and asking again would repeat it.
    std::int64_t applied = 0;
    for (const Edge& e : res.matching) {
      if (e.u < 0 || e.v < 0 || e.u >= n || e.v >= n || e.u == e.v) continue;
      if (!m.is_free(e.u) || !m.is_free(e.v)) continue;
      m.add(e.u, e.v);
      ++applied;
    }
    if (applied == 0) break;
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
