#pragma once

/// Theorem 6.2: a (1+eps)-approximate maximum matching from poly(1/eps)
/// adaptively-chosen A_weak queries (Section 6).
///
/// The simulation replaces the oracle graphs H' / H'_s of Section 5 with
/// vertex sampling: each iteration samples one vertex per structure, queries
/// A_weak on the sampled set (on the double cover B for Overtake stages, on G
/// for Augment), and performs the corresponding operation on every returned
/// matching edge (Sections 6.5-6.6). In-structure s-feasible arcs are
/// exhausted separately before each stage (Invariant 6.10). Unvisited matched
/// vertices participate as singleton regions (their minus copies are always
/// eligible) so that structures can grow by Overtake case 1; this completes
/// the paper's per-structure sampling in the natural way and preserves the
/// 1/Delta^2 preservation bound of Lemma 6.8.
///
/// With `exhaustive_fallback` (default), each pass-bundle ends with a
/// deterministic sweep (the Section 5 simulation backed by an uncounted local
/// greedy oracle) so runs terminate with the Theorem B.4 certificate; switch
/// it off to measure the purely sampled oracle-only behaviour.

#include <cstdint>

#include "core/config.hpp"
#include "core/framework.hpp"
#include "core/phase.hpp"
#include "dynamic/weak_oracle.hpp"
#include "util/rng.hpp"

namespace bmf {

struct WeakSimConfig {
  CoreConfig core;
  /// The delta handed to A_weak (Definition 6.1). The paper fixes
  /// delta = eps^107 for the analysis; operationally it only sets the
  /// bottom-threshold lambda*delta*n.
  double delta = 0.0;
  /// Use sub-threshold matchings (a strictly stronger oracle); disables
  /// "contamination" from discarded answers.
  bool strict = true;
  /// Consecutive zero-progress sampled iterations before a stage gives up.
  int sample_patience = 3;
  /// Hard cap on sampled iterations per stage (safety bound).
  std::int64_t max_stage_iterations = 256;
  /// Deterministic exhaustion sweep at the end of each pass-bundle.
  bool exhaustive_fallback = true;
};

class WeakOracleDriver final : public PassBundleDriver {
 public:
  WeakOracleDriver(const Graph& g, WeakOracle& oracle, const WeakSimConfig& cfg,
                   std::uint64_t seed);

  void begin_phase(StructureForest& forest) override;
  void extend_active_path(StructureForest& forest) override;
  void contract_and_augment(StructureForest& forest) override;
  [[nodiscard]] bool exhaustive() const override;

  [[nodiscard]] std::int64_t sampled_iterations() const {
    return sampled_iterations_;
  }
  /// The exhaustion sweeps' counters (all zero without the fallback).
  [[nodiscard]] const FrameworkStats& fallback_stats() const {
    return fallback_.stats();
  }

 private:
  void run_overtake_stage(StructureForest& forest, int stage);
  void in_structure_sweep(StructureForest& forest, int stage);

  const Graph& g_;
  WeakOracle& oracle_;
  WeakSimConfig cfg_;
  Rng rng_;
  CoreConfig fallback_cfg_;
  GreedyMatchingOracle fallback_oracle_;  // uncounted; exhaustion sweeps only
  FrameworkDriver fallback_;
  std::int64_t sampled_iterations_ = 0;
  /// Unvisited matched vertices still eligible as minus copies (rebuilt per
  /// phase, filtered lazily per iteration).
  std::vector<Vertex> unvisited_pool_;
  std::vector<Vertex> scan_;  ///< in-structure sweep's vertex scan
};

struct WeakBoostResult {
  Matching matching;
  BoostOutcome outcome;
  std::int64_t weak_calls = 0;
  std::int64_t initial_weak_calls = 0;
  std::int64_t sampled_iterations = 0;
  /// FrameworkStats::sweep_rounds / sweep_arcs of the exhaustion sweeps.
  std::int64_t sweep_rounds = 0;
  std::int64_t sweep_arcs = 0;
};

/// Lemma 6.7: a Theta(1)-approximate matching from O(1/(delta*lambda))
/// A_weak calls on the shrinking set of unmatched vertices.
[[nodiscard]] Matching weak_initial_matching(Vertex n, WeakOracle& oracle,
                                             const WeakSimConfig& cfg);

/// Theorem 6.2 end-to-end on a static snapshot g.
[[nodiscard]] WeakBoostResult static_weak_matching(const Graph& g,
                                                   WeakOracle& oracle,
                                                   const WeakSimConfig& cfg);

/// Boosts an existing matching in place (used by the dynamic rebuilds, which
/// already hold a maximal matching).
[[nodiscard]] WeakBoostResult static_weak_boost(const Graph& g, Matching m,
                                                WeakOracle& oracle,
                                                const WeakSimConfig& cfg);

}  // namespace bmf
