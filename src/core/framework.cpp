#include "core/framework.hpp"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <utility>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

// Certificate soundness note: a valid c-approximate oracle returns a
// non-empty matching whenever the derived graph has an edge (mu >= 1 implies
// |M'| >= 1/c > 0). The simulation loops below therefore treat an empty or
// entirely inapplicable answer on a non-empty graph as an out-of-contract
// oracle and count it as a truncated loop, which withholds the Theorem B.4
// certificate instead of issuing it falsely.

namespace bmf {
namespace {

/// Below this edge count the pool round-trip costs more than the initial
/// matching's free-free filter; the filter then runs inline with identical
/// output (see gated_threads).
constexpr std::int64_t kParallelEdgeFilterMin = 2048;

}  // namespace

FrameworkDriver::FrameworkDriver(const Graph& g, MatchingOracle& oracle,
                                 const CoreConfig& cfg)
    : g_(g),
      oracle_(oracle),
      cfg_(cfg),
      right_id_(static_cast<std::size_t>(g.num_vertices()), -1) {}

bool FrameworkDriver::exhaustive() const {
  return cfg_.iteration_mode == IterationMode::kUntilEmpty &&
         stats_.truncated_loops == 0;
}

void FrameworkDriver::extend_active_path(StructureForest& forest) {
  if (cfg_.stage_split) {
    // Algorithm 5: stages s = 0 .. l_max; stage s handles s-feasible arcs
    // (Definition 5.7), i.e. type-3 arcs whose overtaker sits at level s.
    const int lmax = cfg_.ell_max();
    for (int s = 0; s <= lmax; ++s) run_stage(forest, s);
  } else {
    // [FMU22]-style ablation: one loop over all type-3 arcs, no stage split.
    run_stage(forest, -1);
  }
  // Per Remark 2 the trailing Contract-and-Augment of Algorithm 5 is skipped;
  // the phase engine invokes contract_and_augment right after this call.
}

void FrameworkDriver::run_stage(StructureForest& forest, int stage) {
  ++stats_.stage_loops;
  const std::int64_t iteration_bound =
      cfg_.scheduled_iterations(oracle_.approx_factor());
  const Matching& m = forest.matching();
  const BlossomArena& arena = forest.arena();

  std::int64_t iterations = 0;
  for (;;) {
    // Build the bipartite stage graph H'_s (Definition 5.8): left nodes are
    // working vertices of live structures at level `stage` that are neither
    // on hold nor already extended this pass-bundle; right nodes are
    // inner/unvisited matched vertices x with label(x) > level + 1. Left ids
    // follow structure-id order, right ids first-encounter order. A left
    // node's arcs are handled together, so a (left, right) pair repeats iff
    // its right node is stamped with the current left id; the first witness
    // is kept.
    OracleGraph h;
    std::vector<std::pair<Vertex, Vertex>> witness;  // (w, x) per H-edge
    left_level_.clear();
    left_edges_.assign(1, 0);
    for (StructureId sid = 0; sid < forest.num_structures(); ++sid) {
      const StructureInfo& si = forest.structure(sid);
      if (si.removed || si.on_hold || si.extended || si.working == kNoBlossom)
        continue;
      const int level = forest.outer_level(si.working);
      if (stage >= 0 && level != stage) continue;
      arcs_.clear();
      arena.for_each_vertex(si.working, [&](Vertex w) {
        for (Vertex x : g_.neighbors(w)) {
          if (forest.is_removed(x) || m.mate(x) == kNoVertex) continue;
          if (m.mate(w) == x) continue;  // g must be unmatched
          if (!forest.is_unvisited(x) && !forest.is_inner(x)) continue;
          if (forest.label(x) <= level + 1) continue;
          arcs_.emplace_back(w, x);
        }
      });
      if (arcs_.empty()) continue;
      stats_.sweep_arcs += static_cast<std::int64_t>(arcs_.size());
      const auto li = static_cast<std::int32_t>(left_level_.size());
      left_level_.push_back(level);
      for (const auto& [w, x] : arcs_) {
        std::int32_t& ri = right_id_[static_cast<std::size_t>(x)];
        if (ri < 0) {
          ri = static_cast<std::int32_t>(right_vertex_.size());
          right_vertex_.push_back(x);
          right_last_left_.push_back(-1);
        }
        std::int32_t& stamp = right_last_left_[static_cast<std::size_t>(ri)];
        if (stamp == li) continue;
        stamp = li;
        h.edges.emplace_back(li, ri);
        witness.emplace_back(w, x);
      }
      left_edges_.push_back(h.edges.size());
    }
    ++stats_.sweep_rounds;
    const auto nleft = static_cast<std::int32_t>(left_level_.size());
    const auto nright = static_cast<std::int32_t>(right_vertex_.size());
    for (const Vertex x : right_vertex_) right_id_[static_cast<std::size_t>(x)] = -1;
    right_vertex_.clear();
    right_last_left_.clear();
    if (h.edges.empty()) break;

    // Right ids follow the left ids in H'_s.
    h.n = nleft + nright;
    for (auto& e : h.edges) e.second += nleft;

    const OracleMatching found = oracle_.find_matching(h);
    ++stats_.stage_iterations;
    ++iterations;
    if (observer_)
      observer_({stage, h.n, static_cast<std::int64_t>(h.edges.size()),
                 static_cast<std::int64_t>(found.size())});

    // Map matched H-edges back to witness arcs and perform Overtake on each
    // (Lemma B.1 guarantees they stay s-feasible as we go; can_overtake
    // re-validates defensively). A pair that is not a (left, right) edge of
    // H'_s is out of contract and dropped.
    std::int64_t applied = 0;
    for (const auto& [a, b] : found) {
      const std::int32_t l = std::min(a, b);
      const std::int32_t r = std::max(a, b);
      if (l < 0 || l >= nleft || r < nleft || r >= h.n) continue;
      std::size_t e = left_edges_[static_cast<std::size_t>(l)];
      const std::size_t end = left_edges_[static_cast<std::size_t>(l) + 1];
      while (e < end && h.edges[e].second != r) ++e;
      if (e == end) continue;  // oracle returned a non-edge
      const auto [w, x] = witness[e];
      const int k = left_level_[static_cast<std::size_t>(l)] + 1;
      if (forest.can_overtake(w, x, k)) {
        forest.overtake(w, x, k);
        ++applied;
      }
    }
    if (found.empty() || applied == 0) {
      ++stats_.truncated_loops;
      break;
    }
    if (cfg_.iteration_mode == IterationMode::kPaperBound &&
        iterations >= iteration_bound) {
      ++stats_.truncated_loops;
      break;
    }
  }
}

void FrameworkDriver::run_local_contractions(StructureForest& forest) {
  // Step 1 of Contract-and-Augment: exhaust type-1 arcs. Only arcs incident
  // to a working vertex qualify (Definition 5.2), so it suffices to rescan
  // the (growing) working blossom after each contraction. The scan copies
  // the blossom's vertices first: a contraction grows the arena.
  for (StructureId sid = 0; sid < forest.num_structures(); ++sid) {
    bool changed = true;
    while (changed) {
      changed = false;
      const StructureInfo& si = forest.structure(sid);
      if (si.removed || si.working == kNoBlossom) break;
      scan_.clear();
      forest.arena().collect_vertices(si.working, scan_);
      for (Vertex w : scan_) {
        for (Vertex x : g_.neighbors(w)) {
          if (forest.can_contract(w, x)) {
            forest.contract(w, x);
            changed = true;
            break;
          }
        }
        if (changed) break;
      }
    }
  }
}

void FrameworkDriver::run_augment_loop(StructureForest& forest) {
  // Step 2 of Contract-and-Augment (Algorithm 4): iterate A_matching on the
  // structure graph H' (Definition 5.4) and Augment along each matched pair.
  const std::int64_t iteration_bound =
      cfg_.scheduled_iterations(oracle_.approx_factor());
  std::int64_t iterations = 0;
  for (;;) {
    std::unordered_map<StructureId, std::int32_t> index;
    std::unordered_map<std::int64_t, std::pair<Vertex, Vertex>> pair_witness;

    // Inter-structure outer/outer arcs in structure-id order, members in
    // order: index assignment and witness selection (first arc per structure
    // pair wins) follow this scan.
    for (StructureId sid = 0; sid < forest.num_structures(); ++sid) {
      const StructureInfo& si = forest.structure(sid);
      if (si.removed) continue;
      for (Vertex w : si.members) {
        if (!forest.is_outer(w)) continue;
        for (Vertex x : g_.neighbors(w)) {
          if (forest.is_removed(x)) continue;
          const StructureId sx = forest.structure_of(x);
          if (sx == kNoStructure || sx == sid || !forest.is_outer(x)) continue;
          ++stats_.sweep_arcs;
          const auto ia =
              index.emplace(sid, static_cast<std::int32_t>(index.size()))
                  .first->second;
          const auto ib =
              index.emplace(sx, static_cast<std::int32_t>(index.size()))
                  .first->second;
          const std::int64_t key =
              static_cast<std::int64_t>(std::min(ia, ib)) * (1LL << 31) +
              std::max(ia, ib);
          pair_witness.emplace(key, std::make_pair(w, x));
        }
      }
    }
    ++stats_.sweep_rounds;
    if (pair_witness.empty()) break;

    OracleGraph h;
    h.n = static_cast<std::int32_t>(index.size());
    // pair_witness is a hash map; emitting its entries in iteration order
    // would feed the (order-sensitive) oracle a stdlib-dependent edge
    // sequence. Collect the keys and sort, so the oracle input is a pure
    // function of the structure graph.
    std::vector<std::int64_t> keys;
    keys.reserve(pair_witness.size());
    for (const auto& [key, wx] : pair_witness) {
      (void)wx;
      keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    for (const std::int64_t key : keys)
      h.edges.emplace_back(static_cast<std::int32_t>(key >> 31),
                           static_cast<std::int32_t>(key & ((1LL << 31) - 1)));
    const OracleMatching found = oracle_.find_matching(h);
    ++stats_.ca_iterations;
    ++iterations;
    if (observer_)
      observer_({-1, h.n, static_cast<std::int64_t>(h.edges.size()),
                 static_cast<std::int64_t>(found.size())});

    std::int64_t applied = 0;
    for (const auto& [a, b] : found) {
      const std::int64_t key =
          static_cast<std::int64_t>(std::min(a, b)) * (1LL << 31) + std::max(a, b);
      const auto it = pair_witness.find(key);
      if (it == pair_witness.end()) continue;
      const auto [w, x] = it->second;
      if (forest.can_augment(w, x)) {
        forest.augment(w, x);
        ++applied;
      }
    }
    if (found.empty() || applied == 0) {
      if (!h.edges.empty()) ++stats_.truncated_loops;
      break;
    }
    if (cfg_.iteration_mode == IterationMode::kPaperBound &&
        iterations >= iteration_bound) {
      ++stats_.truncated_loops;
      break;
    }
  }
}

void FrameworkDriver::contract_and_augment(StructureForest& forest) {
  run_local_contractions(forest);
  run_augment_loop(forest);
}

Matching framework_initial_matching(const Graph& g, MatchingOracle& oracle,
                                    const CoreConfig& cfg) {
  Matching m(g.num_vertices());
  const auto bound = static_cast<std::int64_t>(2.0 * oracle.approx_factor()) + 1;
  const std::span<const Edge> edges = g.edges();
  // Chunked parallel filter of the free-free subgraph; chunk buffers merge in
  // chunk order, so the edge sequence equals the serial scan for any chunk
  // count (the chunk count itself never changes the output).
  const int filter_threads = gated_threads(static_cast<std::int64_t>(edges.size()),
                                           kParallelEdgeFilterMin, cfg.threads);
  const std::int64_t nchunks =
      ThreadPool::resolve_threads(filter_threads) > 1
          ? static_cast<std::int64_t>(ThreadPool::resolve_threads(cfg.threads)) * 4
          : 1;
  for (std::int64_t i = 0;; ++i) {
    OracleGraph h;
    h.n = g.num_vertices();
    if (nchunks > 1) {
      std::vector<std::vector<std::pair<std::int32_t, std::int32_t>>> chunks(
          static_cast<std::size_t>(nchunks));
      const auto total = static_cast<std::int64_t>(edges.size());
      // filter_threads, not cfg.threads: nchunks > 1 already implies the gate
      // passed, but the fan-out must route through the gated count so the
      // size-gate discipline is uniform (and machine-checkable).
      parallel_for_threads(filter_threads, nchunks, [&](std::int64_t c) {
        const std::int64_t lo = total * c / nchunks;
        const std::int64_t hi = total * (c + 1) / nchunks;
        auto& out = chunks[static_cast<std::size_t>(c)];
        for (std::int64_t e = lo; e < hi; ++e) {
          const Edge& edge = edges[static_cast<std::size_t>(e)];
          if (m.is_free(edge.u) && m.is_free(edge.v))
            out.emplace_back(edge.u, edge.v);
        }
      });
      for (const auto& chunk : chunks)
        h.edges.insert(h.edges.end(), chunk.begin(), chunk.end());
    } else {
      for (const Edge& e : edges)
        if (m.is_free(e.u) && m.is_free(e.v)) h.edges.emplace_back(e.u, e.v);
    }
    if (h.edges.empty()) break;
    const OracleMatching found = oracle.find_matching(h);
    if (found.empty()) break;
    for (const auto& [u, v] : found)
      if (m.is_free(u) && m.is_free(v)) m.add(u, v);
    if (cfg.iteration_mode == IterationMode::kPaperBound && i + 1 >= bound) break;
  }
  return m;
}

BoostResult boost_matching(const Graph& g, MatchingOracle& oracle,
                           const CoreConfig& cfg) {
  const std::int64_t calls_before = oracle.calls();
  BoostResult result{framework_initial_matching(g, oracle, cfg), {}, {}, 0, 0};
  result.initial_oracle_calls = oracle.calls() - calls_before;

  FrameworkDriver driver(g, oracle, cfg);
  PhaseEngine engine(g, cfg);
  result.outcome = engine.run(result.matching, driver);
  result.stats = driver.stats();
  result.total_oracle_calls = oracle.calls() - calls_before;
  return result;
}

EnsembleResult boost_matching_ensemble(const Graph& g,
                                       const OracleFactory& make_oracle,
                                       const CoreConfig& cfg, int repetitions) {
  BMF_REQUIRE(repetitions >= 1, "boost_matching_ensemble: need >= 1 repetition");
  BMF_REQUIRE(make_oracle != nullptr, "boost_matching_ensemble: null factory");

  // Split per-repetition seeds serially up front; the fan-out below must not
  // touch shared randomness.
  Rng seeder(cfg.seed);
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(repetitions));
  for (auto& s : seeds) s = seeder.next();

  std::vector<BoostResult> slots(static_cast<std::size_t>(repetitions));
  // Each repetition is a full boost run — worth a pool thread whenever there
  // are at least two; slots are per-repetition, so the fan-out is
  // output-invariant.
  const int ensemble_threads =
      gated_threads(static_cast<std::int64_t>(repetitions), 2, cfg.threads);
  parallel_for_threads(ensemble_threads, repetitions, [&](std::int64_t r) {
    CoreConfig local = cfg;
    local.seed = seeds[static_cast<std::size_t>(r)];
    local.threads = 1;  // repetitions already occupy the pool; don't nest
    const std::unique_ptr<MatchingOracle> oracle = make_oracle(local.seed);
    slots[static_cast<std::size_t>(r)] = boost_matching(g, *oracle, local);
  });

  EnsembleResult result;
  result.sizes.reserve(static_cast<std::size_t>(repetitions));
  for (int r = 0; r < repetitions; ++r) {
    const std::int64_t size = slots[static_cast<std::size_t>(r)].matching.size();
    result.sizes.push_back(size);
    if (result.best_repetition < 0 ||
        size > result.sizes[static_cast<std::size_t>(result.best_repetition)])
      result.best_repetition = r;
  }
  result.best = std::move(slots[static_cast<std::size_t>(result.best_repetition)]);
  return result;
}

}  // namespace bmf
