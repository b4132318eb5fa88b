#include "core/framework.hpp"

#include <algorithm>
#include <cmath>
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

/// True if a vertex of the forest's outer log is an endpoint of an H' arc
/// (outer, live, different structures). An H' arc can only appear at a
/// logged vertex (structures.hpp), so false proves H' empty.
bool logged_hprime_arc(const StructureForest& forest, const Graph& g) {
  for (const Vertex w : forest.outer_log()) {
    if (!forest.is_outer(w)) continue;  // removed since it was logged
    const StructureId sw = forest.structure_of(w);
    for (const Vertex x : g.neighbors(w))
      if (forest.is_outer(x) && forest.structure_of(x) != sw) return true;
  }
  return false;
}

/// The oracle's approximation factor c, which both oracle schedules scale
/// with. A NaN, infinite or below-1 factor is API misuse: the schedules used
/// to cast it to an int64 unchecked.
double checked_approx_factor(const MatchingOracle& oracle) {
  const double c = oracle.approx_factor();
  BMF_REQUIRE(std::isfinite(c) && c >= 1.0,
              "MatchingOracle: approx_factor() must be finite and >= 1");
  return c;
}

}  // namespace

FrameworkDriver::FrameworkDriver(const Graph& g, MatchingOracle& oracle,
                                 const CoreConfig& cfg)
    : g_(g),
      oracle_(oracle),
      cfg_(cfg),
      iteration_bound_(cfg.scheduled_iterations(checked_approx_factor(oracle))),
      right_id_(static_cast<std::size_t>(g.num_vertices()), -1) {}

bool FrameworkDriver::exhaustive() const {
  return cfg_.iteration_mode == IterationMode::kUntilEmpty &&
         stats_.truncated_loops == 0;
}

void FrameworkDriver::extend_active_path(StructureForest& forest) {
  if (cfg_.stage_split) {
    // Algorithm 5: stages s = 0 .. l_max; stage s handles s-feasible arcs
    // (Definition 5.7), i.e. type-3 arcs whose overtaker sits at level s.
    // A stage below the next eligible level has no left node: it would count
    // one loop and one empty sweep and stop, so it is skipped with just that.
    const int lmax = cfg_.ell_max();
    for (int s = 0; s <= lmax;) {
      const int next = std::min(forest.next_eligible_level(s), lmax + 1);
      stats_.stage_loops += next - s;
      stats_.sweep_rounds += next - s;
      if (next > lmax) break;
      run_stage(forest, next);
      s = next + 1;
    }
  } else {
    // [FMU22]-style ablation: one loop over all type-3 arcs, no stage split.
    run_stage(forest, -1);
  }
  // Per Remark 2 the trailing Contract-and-Augment of Algorithm 5 is skipped;
  // the phase engine invokes contract_and_augment right after this call.
}

void FrameworkDriver::run_stage(StructureForest& forest, int stage) {
  ++stats_.stage_loops;

  std::int64_t iterations = 0;
  for (;;) {
    // Build the bipartite stage graph H'_s (Definition 5.8): left nodes are
    // working vertices of live structures at level `stage` that are neither
    // on hold nor already extended this pass-bundle; right nodes are
    // inner/unvisited matched vertices x with label(x) > level + 1. Left ids
    // follow structure-id order, right ids first-encounter order. A left
    // node's arcs come from its working blossom's right-node list
    // (structures.hpp), which holds each candidate x once with its first
    // witness and its arc count, in the order a walk of the blossom's live
    // lists meets them; only the label test is left to make.
    witness_.clear();
    left_level_.clear();
    left_edges_.assign(1, 0);
    for (StructureId sid = 0; sid < forest.num_structures(); ++sid) {
      const StructureInfo& si = forest.structure(sid);
      if (si.removed || si.on_hold || si.extended || si.working == kNoBlossom)
        continue;
      const int level = forest.outer_level(si.working);
      if (stage >= 0 && level != stage) continue;
      const std::span<const RightNode> list = forest.read_right_nodes(si.working);
      const std::size_t first = witness_.size();
      witness_.resize(first + list.size());
      std::pair<Vertex, Vertex>* out = witness_.data() + first;
      std::int64_t arcs = 0;
      for (const RightNode& e : list) {
        if (forest.label(e.x) <= level + 1) continue;
        arcs += e.count;
        *out++ = {e.w, e.x};
      }
      witness_.resize(static_cast<std::size_t>(out - witness_.data()));
      if (arcs == 0) continue;
      stats_.sweep_arcs += arcs;
      left_level_.push_back(level);
      left_edges_.push_back(witness_.size());
    }
    ++stats_.sweep_rounds;
    if (witness_.empty()) break;

    // Right ids follow the left ids in H'_s.
    const auto nleft = static_cast<std::int32_t>(left_level_.size());
    std::int32_t nright = 0;
    h_.edges.resize(witness_.size());
    for (std::int32_t l = 0; l < nleft; ++l) {
      const std::size_t end = left_edges_[static_cast<std::size_t>(l) + 1];
      for (std::size_t e = left_edges_[static_cast<std::size_t>(l)]; e < end; ++e) {
        std::int32_t& ri = right_id_[static_cast<std::size_t>(witness_[e].second)];
        if (ri < 0) ri = nright++;
        h_.edges[e] = {l, nleft + ri};
      }
    }
    for (const auto& [w, x] : witness_) right_id_[static_cast<std::size_t>(x)] = -1;
    h_.n = nleft + nright;

    const OracleMatching found = oracle_.find_matching(h_);
    ++stats_.stage_iterations;
    ++iterations;
    if (observer_)
      observer_({stage, h_.n, static_cast<std::int64_t>(h_.edges.size()),
                 static_cast<std::int64_t>(found.size())});

    // Map matched H-edges back to witness arcs and perform Overtake on each
    // (Lemma B.1 guarantees they stay s-feasible as we go; can_overtake
    // re-validates defensively). A pair that is not a (left, right) edge of
    // H'_s is out of contract and dropped.
    std::int64_t applied = 0;
    for (const auto& [a, b] : found) {
      const std::int32_t l = std::min(a, b);
      const std::int32_t r = std::max(a, b);
      if (l < 0 || l >= nleft || r < nleft || r >= h_.n) continue;
      std::size_t e = left_edges_[static_cast<std::size_t>(l)];
      const std::size_t end = left_edges_[static_cast<std::size_t>(l) + 1];
      while (e < end && h_.edges[e].second != r) ++e;
      if (e == end) continue;  // oracle returned a non-edge
      const auto [w, x] = witness_[e];
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
        iterations >= iteration_bound_) {
      ++stats_.truncated_loops;
      break;
    }
  }
}

void FrameworkDriver::run_local_contractions(StructureForest& forest) {
  // Step 1 of Contract-and-Augment: exhaust type-1 arcs. Only arcs incident
  // to a working vertex qualify (Definition 5.2), so it suffices to rescan
  // the (growing) working blossom after each contraction. The scan walks the
  // blossom's run in place and stops at the contraction, which makes the new
  // working blossom. A contraction-clean vertex has no contractible arc, so
  // skipping it leaves the contraction order as is; a full scan that finds
  // none marks it.
  for (StructureId sid = 0; sid < forest.num_structures(); ++sid) {
    for (;;) {
      const StructureInfo& si = forest.structure(sid);
      if (si.removed || si.working == kNoBlossom) break;
      const Vertex contracted = forest.arena().find_vertex(si.working, [&](Vertex w) {
        if (forest.is_contraction_clean(w)) return false;
        for (Vertex x : g_.neighbors(w)) {
          if (forest.can_contract(w, x)) {
            forest.contract(w, x);
            return true;
          }
        }
        forest.mark_contraction_clean(w);
        return false;
      });
      if (contracted == kNoVertex) break;
    }
  }
}

void FrameworkDriver::run_augment_loop(StructureForest& forest) {
  // Step 2 of Contract-and-Augment (Algorithm 4): iterate A_matching on the
  // structure graph H' (Definition 5.4) and Augment along each matched pair.
  // Most sweeps find H' empty; the outer log proves that without the member
  // scan below, which still builds every non-empty H'. Only a sweep that
  // found H' empty clears the log.
  if (!logged_hprime_arc(forest, g_)) {
    ++stats_.sweep_rounds;
    forest.clear_outer_log();
    return;
  }
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
    if (pair_witness.empty()) {
      forest.clear_outer_log();
      break;
    }

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
        iterations >= iteration_bound_) {
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
  const Vertex n = g.num_vertices();
  Matching m(n);
  const std::int64_t bound =
      CoreConfig::initial_matching_calls(checked_approx_factor(oracle));
  for (std::int64_t i = 0;; ++i) {
    OracleGraph h;
    h.n = n;
    for (const Edge& e : g.edges())
      if (m.is_free(e.u) && m.is_free(e.v)) h.edges.emplace_back(e.u, e.v);
    if (h.edges.empty()) break;
    // Only a pair that is an edge of h can join the matching. An answer that
    // applies none is out of contract, and asking again would repeat it.
    std::int64_t applied = 0;
    for (const auto& [u, v] : oracle.find_matching(h)) {
      if (u < 0 || v < 0 || u >= n || v >= n || u == v) continue;
      if (!m.is_free(u) || !m.is_free(v) || !g.has_edge(u, v)) continue;
      m.add(u, v);
      ++applied;
    }
    if (applied == 0) break;
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
