#pragma once

/// The boosting framework for a graph oracle (Section 5, Theorem 1.1).
///
/// FrameworkDriver simulates Extend-Active-Path (Algorithm 5: l_max label
/// stages, each a loop of A_matching calls on the bipartite stage graph H'_s
/// of Definition 5.8) and Contract-and-Augment (Algorithm 4: local
/// contraction to kill type-1 arcs, then a loop of A_matching calls on the
/// structure graph H' of Definition 5.4). Per Remark 2, the Contract-and-
/// Augment invocation at the end of Algorithm 5 is skipped; the phase engine
/// runs it once per pass-bundle.
///
/// `boost_matching` is the Theorem 1.1 entry point: it computes a
/// 4-approximate initial matching with O(c) oracle calls (Lemma 5.3) and then
/// runs the phase engine with this driver.
///
/// Each simulation iteration builds its derived graph (H'_s or H') in one
/// serial sweep over the live structures in structure-id order. Two cases
/// build nothing: a stage below the forest's next eligible level, and an H'
/// sweep whose outer log holds no H' arc (structures.hpp); each still counts
/// its one empty sweep. The H'_s sweep walks no blossom: it reads each left
/// node's right-node list (structures.hpp), which the forest carries from one
/// pass-bundle to the next and keeps equal to a walk of the working blossom's
/// run over its live adjacency, less the neighbours that cannot be the right
/// end of an H'_s arc again in the phase. Within a phase, whether a live
/// neighbour x of the blossom is a right node depends only on x and the
/// blossom's level, so the sweep's one test per entry, label(x) > level + 1,
/// gives the walk's edges in the walk's order, with its first witnesses and
/// its arc count. Local contractions and the H' sweep look for outer
/// neighbours, so they read g.
/// The Theorem 6.2 rebuild inside the dynamic matcher runs its exhaustion
/// sweeps through this driver.

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/oracle.hpp"
#include "core/phase.hpp"
#include "core/structures.hpp"
#include "graph/graph.hpp"
#include "matching/matching.hpp"

namespace bmf {

struct FrameworkStats {
  std::int64_t stage_loops = 0;       ///< (stage, pass-bundle) pairs simulated
  std::int64_t stage_iterations = 0;  ///< oracle iterations inside Algorithm 5
  std::int64_t ca_iterations = 0;     ///< oracle iterations inside Algorithm 4
  std::int64_t truncated_loops = 0;   ///< loops cut by the paper's fixed bound
  /// Discovery sweeps over H'_s and H': one per oracle iteration, plus one
  /// for each loop that ended on a derived graph with no edge.
  std::int64_t sweep_rounds = 0;
  /// Candidate arcs those sweeps found, before the first-witness dedupe.
  std::int64_t sweep_arcs = 0;
};

/// Observation hook for the Figure-3 benchmark: reports the size of the
/// matching A_matching found in each simulation iteration together with the
/// number of arcs in the derived graph.
struct IterationObservation {
  int stage = -1;  ///< label stage for Algorithm 5; -1 for Algorithm 4
  std::int64_t h_vertices = 0;
  std::int64_t h_edges = 0;
  std::int64_t matched = 0;
};
using IterationObserver = std::function<void(const IterationObservation&)>;

class FrameworkDriver final : public PassBundleDriver {
 public:
  FrameworkDriver(const Graph& g, MatchingOracle& oracle, const CoreConfig& cfg);

  void extend_active_path(StructureForest& forest) override;
  /// Algorithm 4: run_local_contractions, then run_augment_loop.
  void contract_and_augment(StructureForest& forest) override;
  [[nodiscard]] bool exhaustive() const override;

  /// Step 1 of Contract-and-Augment: contract type-1 arcs until none is left
  /// (local work, no oracle call).
  void run_local_contractions(StructureForest& forest);
  /// Step 2 of Contract-and-Augment: A_matching on the structure graph H'
  /// (Definition 5.4) and Augment along each matched pair, until exhausted.
  void run_augment_loop(StructureForest& forest);

  [[nodiscard]] const FrameworkStats& stats() const { return stats_; }
  void set_observer(IterationObserver obs) { observer_ = std::move(obs); }

 private:
  /// One stage of Algorithm 5 (or the unsplit [FMU22]-style variant when
  /// cfg.stage_split is false and stage < 0).
  void run_stage(StructureForest& forest, int stage);

  const Graph& g_;
  MatchingOracle& oracle_;
  const CoreConfig& cfg_;
  /// The paper's oracle iterations per loop, for kPaperBound.
  const std::int64_t iteration_bound_;
  FrameworkStats stats_;
  IterationObserver observer_;

  // H'_s and its scratch, reused across sweep iterations, O(n + m) each.
  OracleGraph h_;
  std::vector<std::pair<Vertex, Vertex>> witness_;  ///< H'_s edge -> (w, x)
  std::vector<std::int32_t> right_id_;  ///< vertex -> right id, or -1
  std::vector<int> left_level_;         ///< left id -> overtaker level
  /// Left id l owns the H'_s edges [left_edges_[l], left_edges_[l + 1]).
  std::vector<std::size_t> left_edges_;
};

/// Lemma 5.3: a Theta(1)-approximate initial matching by repeatedly invoking
/// A_matching on the subgraph induced by currently-free vertices.
[[nodiscard]] Matching framework_initial_matching(const Graph& g,
                                                  MatchingOracle& oracle,
                                                  const CoreConfig& cfg);

struct BoostResult {
  Matching matching;
  BoostOutcome outcome;
  FrameworkStats stats;
  std::int64_t initial_oracle_calls = 0;
  std::int64_t total_oracle_calls = 0;
};

/// Theorem 1.1: a (1+eps)-approximate maximum matching of g using only
/// invocations of the given Theta(1)-approximate oracle (plus the local
/// structure processing the theorem charges to A_process).
[[nodiscard]] BoostResult boost_matching(const Graph& g, MatchingOracle& oracle,
                                         const CoreConfig& cfg);

/// Builds a fresh oracle for one boosting repetition from that repetition's
/// seed. Each repetition gets its own oracle so independent runs never share
/// mutable state (randomness, counters) across threads.
using OracleFactory =
    std::function<std::unique_ptr<MatchingOracle>(std::uint64_t seed)>;

struct EnsembleResult {
  BoostResult best;            ///< the repetition with the largest matching
  int best_repetition = -1;    ///< its index (lowest on ties)
  std::vector<std::int64_t> sizes;  ///< matching size per repetition
};

/// Runs `repetitions` independent boosted runs, each with its own oracle and
/// a per-repetition seed split from cfg.seed, fanned out across cfg.threads
/// pool workers, and keeps the run with the largest matching (ties break to
/// the lowest repetition index). Seeds are drawn serially up front and each
/// repetition writes into its own result slot, so the outcome is
/// bit-identical at any thread count.
[[nodiscard]] EnsembleResult boost_matching_ensemble(const Graph& g,
                                                     const OracleFactory& make_oracle,
                                                     const CoreConfig& cfg,
                                                     int repetitions);

}  // namespace bmf
