#pragma once

/// Shared differential checker for the dynamic engine: the sequential
/// `apply` loop against `apply_batch` at each batch size, and the engine that
/// owns its oracle against one that borrows a `MatrixWeakOracle`.
///
/// `DynamicMatcher` promises bit-identical matchings (mate by mate), graph,
/// rebuild counts *and positions*, `RebuildStats` and A_weak call counts
/// whatever batch sizes the stream is sliced into and whichever of the two
/// oracles answers A_weak. This header is the one checker behind
/// tests/test_replay_core.cpp, tests/test_dynamic_batch.cpp and
/// tests/test_rebuild_parallel.cpp, so no suite carries its own copy of the
/// loop. `words_touched` (the matrix oracle's cost proxy) is exact, so it
/// must agree across the matrix legs too.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "dynamic/dynamic_matcher.hpp"
#include "dynamic/replay_engine.hpp"
#include "dynamic/weak_oracle.hpp"
#include "workloads/dyn_workload.hpp"

namespace bmf::testdiff {

/// Everything the determinism contract promises to preserve.
struct RunResult {
  std::vector<Vertex> mates;
  std::int64_t matching_size = 0;
  std::int64_t updates = 0;
  std::int64_t rebuilds = 0;
  std::vector<std::int64_t> rebuild_positions;
  std::int64_t weak_calls = 0;
  RebuildStats rebuild_stats;
  std::int64_t num_edges = 0;
  std::vector<Edge> graph_edges;

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

inline RunResult collect(const ReplayEngine& dm) {
  RunResult r;
  for (Vertex v = 0; v < dm.num_vertices(); ++v)
    r.mates.push_back(dm.matching().mate(v));
  r.matching_size = dm.matching().size();
  r.updates = dm.updates();
  r.rebuilds = dm.rebuilds();
  r.rebuild_positions = dm.rebuild_positions();
  r.weak_calls = dm.weak_calls();
  r.rebuild_stats = dm.rebuild_stats();
  const Graph s = dm.snapshot();
  r.num_edges = s.num_edges();
  r.graph_edges.assign(s.edges().begin(), s.edges().end());
  // Oracle queries only ever happen inside Theorem 6.2 rebuilds, so the
  // folded rebuild counters must reconcile exactly with the engine counters.
  EXPECT_EQ(r.rebuild_stats.weak_calls, r.weak_calls);
  EXPECT_EQ(r.rebuild_stats.rebuilds, r.rebuilds);
  // The snapshot export hook is part of the contract the service layer
  // builds on: an exported snapshot must reproduce the live matching mate by
  // mate.
  const MatchingSnapshot snap = dm.export_snapshot(r.updates);
  EXPECT_EQ(std::vector<Vertex>(snap.mates().begin(), snap.mates().end()),
            r.mates);
  EXPECT_EQ(snap.size(), r.matching_size);
  EXPECT_EQ(snap.epoch(), r.updates);
  return r;
}

/// The reference semantics: the one-at-a-time sequential apply loop.
inline RunResult run_sequential(Vertex n, std::span<const EdgeUpdate> ups,
                                const DynamicMatcherConfig& cfg,
                                std::int64_t* words_out = nullptr) {
  MatrixWeakOracle oracle(n);
  DynamicMatcher dm(n, oracle, cfg);
  for (const EdgeUpdate& up : ups) dm.apply(up);
  if (words_out != nullptr) *words_out = oracle.words_touched();
  return collect(dm);
}

/// The sequential loop on `DynamicMatcher(n, cfg)`, the engine that owns an
/// `AdjacencyWeakOracle` over its own graph (what the service runs).
inline RunResult run_owning(Vertex n, std::span<const EdgeUpdate> ups,
                            const DynamicMatcherConfig& cfg) {
  DynamicMatcher dm(n, cfg);
  for (const EdgeUpdate& up : ups) dm.apply(up);
  return collect(dm);
}

/// `apply_batch` over consecutive slices of `batch_size`. Audits
/// words_touched monotonicity batch over batch and reports the final count.
inline RunResult run_batched(Vertex n, std::span<const EdgeUpdate> ups,
                             const DynamicMatcherConfig& cfg,
                             std::int64_t batch_size,
                             std::int64_t* words_out = nullptr) {
  MatrixWeakOracle oracle(n);
  DynamicMatcher dm(n, oracle, cfg);
  std::int64_t last_words = 0;
  for (const auto& batch : slice_updates(ups, batch_size)) {
    dm.apply_batch(batch);
    EXPECT_GE(oracle.words_touched(), last_words);
    last_words = oracle.words_touched();
  }
  if (words_out != nullptr) *words_out = oracle.words_touched();
  return collect(dm);
}

/// The single loop: the sequential reference, the owning engine's sequential
/// loop, then `apply_batch` at every batch size, asserting the full RunResult
/// (including rebuild positions) agrees everywhere and the exact
/// words_touched count agrees across the matrix legs.
inline void expect_batches_equal_sequential(
    Vertex n, std::span<const EdgeUpdate> ups, const DynamicMatcherConfig& cfg,
    const std::vector<std::int64_t>& batch_sizes, std::int64_t min_rebuilds = 1) {
  std::int64_t want_words = -1;
  const RunResult want = run_sequential(n, ups, cfg, &want_words);
  EXPECT_GE(want.rebuilds, min_rebuilds) << "stream too small to exercise rebuilds";
  EXPECT_EQ(run_owning(n, ups, cfg), want) << "owning engine";
  for (const std::int64_t batch_size : batch_sizes) {
    std::int64_t words = 0;
    EXPECT_EQ(run_batched(n, ups, cfg, batch_size, &words), want)
        << "batch=" << batch_size;
    EXPECT_EQ(words, want_words) << "batch=" << batch_size;
  }
}

}  // namespace bmf::testdiff
