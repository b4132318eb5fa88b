#pragma once

/// Shared cross-engine differential checker for the dynamic replay core.
///
/// Every dynamic engine in the repo is a facade over
/// `DynamicReplayCore<Store>` and promises the same determinism contract:
/// bit-identical matchings (mate by mate), graph, rebuild counts *and
/// positions*, and A_weak call counts versus the sequential `apply` loop, at
/// any (threads x batch-size) for `DynamicMatcher::apply_batch` and any
/// (shards x threads x batch-size) for `ShardedDynamicMatcher`. This header
/// is the one checker behind tests/test_replay_core.cpp,
/// tests/test_dynamic_batch.cpp, tests/test_sharded_dynamic.cpp, and
/// tests/test_rebuild_parallel.cpp — the grid loops live here so no suite
/// carries its own copy.
///
/// `words_touched` (the oracle cost proxy) is exact and invariant across
/// every grid axis, and the sharded oracle runs `MatrixWeakOracle`'s greedy
/// probe for probe, so the two oracle families report one count.
///
/// The coordinator message ledger (`CommStats`) has a weaker contract still:
/// deterministic (pinned by a double run in every sharded k > 1 cell),
/// monotone batch over batch (audited inside `run_sharded`), and equal at
/// every thread count and every batch size for a fixed shard count (the
/// update path charges one round per toggled update, whatever batch it
/// arrives in), with all-zero ledgers for the flat engine and the k = 1
/// sharded engine — but *not* equal across shard counts.
/// `RebuildStats`, by contrast, is part of the full bit-identity contract
/// and rides inside `RunResult`.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dynamic/dynamic_matcher.hpp"
#include "dynamic/sharded_matcher.hpp"
#include "dynamic/weak_oracle.hpp"
#include "workloads/dyn_workload.hpp"

namespace bmf::testdiff {

/// Everything the replay-core determinism contract promises to preserve.
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

template <class Engine>
RunResult collect_counters(const Engine& dm, Vertex n) {
  RunResult r;
  for (Vertex v = 0; v < n; ++v) r.mates.push_back(dm.matching().mate(v));
  r.matching_size = dm.matching().size();
  r.updates = dm.updates();
  r.rebuilds = dm.rebuilds();
  r.rebuild_positions = dm.rebuild_positions();
  r.weak_calls = dm.weak_calls();
  r.rebuild_stats = dm.rebuild_stats();
  // Oracle queries only ever happen inside Theorem 6.2 rebuilds, so the
  // folded rebuild counters must reconcile exactly with the engine counters
  // at every grid point.
  EXPECT_EQ(r.rebuild_stats.weak_calls, r.weak_calls);
  EXPECT_EQ(r.rebuild_stats.rebuilds, r.rebuilds);
  // The snapshot export hook is part of the contract the service layer
  // builds on: an exported snapshot must reproduce the live matching mate by
  // mate, so pin it at every grid point the differential suites visit.
  const MatchingSnapshot snap = dm.export_snapshot(r.updates);
  EXPECT_EQ(std::vector<Vertex>(snap.mates().begin(), snap.mates().end()),
            r.mates);
  EXPECT_EQ(snap.size(), r.matching_size);
  EXPECT_EQ(snap.epoch(), r.updates);
  return r;
}

inline RunResult collect(const DynamicMatcher& dm) {
  RunResult r = collect_counters(dm, dm.graph().num_vertices());
  r.num_edges = dm.graph().num_edges();
  const Graph s = dm.graph().snapshot();
  r.graph_edges.assign(s.edges().begin(), s.edges().end());
  // The flat store is one node: nothing ever crosses a shard
  // boundary, so its ledger is identically zero at every grid point.
  EXPECT_EQ(dm.comm_stats(), CommStats{});
  return r;
}

inline RunResult collect(const ShardedDynamicMatcher& dm) {
  RunResult r = collect_counters(dm, dm.num_vertices());
  r.num_edges = dm.num_edges();
  const Graph s = dm.snapshot();
  r.graph_edges.assign(s.edges().begin(), s.edges().end());
  return r;
}

/// The reference semantics: the one-at-a-time sequential apply loop over the
/// flat engine.
inline RunResult run_sequential(Vertex n, std::span<const EdgeUpdate> ups,
                                const DynamicMatcherConfig& cfg,
                                std::int64_t* words_out = nullptr) {
  MatrixWeakOracle oracle(n);
  DynamicMatcher dm(n, oracle, cfg);
  for (const EdgeUpdate& up : ups) dm.apply(up);
  if (words_out != nullptr) *words_out = oracle.words_touched();
  return collect(dm);
}

/// Batched flat engine at one grid point. Audits words_touched monotonicity
/// batch over batch and reports the final count.
inline RunResult run_flat_batched(Vertex n, std::span<const EdgeUpdate> ups,
                                  DynamicMatcherConfig cfg, int threads,
                                  std::int64_t batch_size,
                                  std::int64_t* words_out = nullptr) {
  cfg.threads = threads;
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

/// Sharded engine at one grid point. The shared `DynamicCoreConfig` base is
/// copied wholesale — no ad-hoc field forwarding.
inline RunResult run_sharded(Vertex n, std::span<const EdgeUpdate> ups,
                             const DynamicMatcherConfig& base, int shards,
                             int threads, std::int64_t batch_size,
                             std::int64_t* words_out = nullptr,
                             CommStats* comm_out = nullptr) {
  ShardedMatcherConfig cfg;
  static_cast<DynamicCoreConfig&>(cfg) = base;
  cfg.shards = shards;
  cfg.threads = threads;
  ShardedDynamicMatcher dm(n, cfg);
  std::int64_t last_words = 0;
  CommStats last_comm;
  for (const auto& batch : slice_updates(ups, batch_size)) {
    dm.apply_batch(batch);
    EXPECT_GE(dm.oracle().words_touched(), last_words);
    last_words = dm.oracle().words_touched();
    // The ledger is an accumulator: every field is monotone batch over batch.
    const CommStats comm = dm.comm_stats();
    EXPECT_GE(comm.batch_bytes, last_comm.batch_bytes);
    EXPECT_GE(comm.batch_rounds, last_comm.batch_rounds);
    EXPECT_GE(comm.rebuild_bytes, last_comm.rebuild_bytes);
    EXPECT_GE(comm.rebuild_rounds, last_comm.rebuild_rounds);
    last_comm = comm;
  }
  if (words_out != nullptr) *words_out = last_words;
  if (comm_out != nullptr) *comm_out = dm.comm_stats();
  return collect(dm);
}

/// Grid axes for expect_all_engines_equal. Defaults are the canonical
/// acceptance grid; suites narrow or widen them per scenario.
struct GridOptions {
  std::vector<int> flat_threads = {1, 2, 8};
  std::vector<std::int64_t> flat_batch_sizes = {64};
  std::vector<int> shard_counts = {1, 2, 4};
  std::vector<int> sharded_threads = {1, 2, 8};
  std::vector<std::int64_t> sharded_batch_sizes = {64};
  std::int64_t min_rebuilds = 1;
  /// Skip the sharded half (for suites focused on the flat engine).
  bool run_sharded_grid = true;
};

/// The single loop: sequential reference, then every flat (threads x batch)
/// point, then every sharded (shards x batch x threads) point, asserting the
/// full RunResult (including rebuild positions) agrees everywhere, that
/// words_touched is one count across the whole grid, and that the sharded
/// comm ledger is invariant across thread counts and batch sizes.
inline void expect_all_engines_equal(Vertex n, std::span<const EdgeUpdate> ups,
                                     const DynamicMatcherConfig& cfg,
                                     const GridOptions& opt = {}) {
  std::int64_t flat_words = -1;
  const RunResult want = run_sequential(n, ups, cfg, &flat_words);
  EXPECT_GE(want.rebuilds, opt.min_rebuilds)
      << "stream too small to exercise rebuilds";

  for (const int threads : opt.flat_threads)
    for (const std::int64_t batch_size : opt.flat_batch_sizes) {
      std::int64_t words = 0;
      const RunResult got =
          run_flat_batched(n, ups, cfg, threads, batch_size, &words);
      EXPECT_EQ(got, want) << "flat threads=" << threads
                           << " batch=" << batch_size;
      // One query schedule: the exact words count is invariant across the
      // whole grid including the serial loop.
      EXPECT_EQ(words, flat_words)
          << "flat threads=" << threads << " batch=" << batch_size;
    }

  if (!opt.run_sharded_grid) return;
  for (const int shards : opt.shard_counts) {
    // The update path charges one round per toggled update and nothing reads
    // the thread count, so a shard count has one ledger across every batch
    // size and thread count.
    std::optional<CommStats> shard_comm;
    for (const std::int64_t batch_size : opt.sharded_batch_sizes) {
      std::optional<CommStats> first_comm;
      for (const int threads : opt.sharded_threads) {
        std::int64_t words = 0;
        CommStats comm;
        const RunResult got =
            run_sharded(n, ups, cfg, shards, threads, batch_size, &words, &comm);
        EXPECT_EQ(got, want) << "shards=" << shards << " threads=" << threads
                             << " batch=" << batch_size;
        // The sharded oracle probes exactly the flat oracle's rows against
        // the same masks, so it scans the same words.
        EXPECT_EQ(words, flat_words)
            << "shards=" << shards << " threads=" << threads
            << " batch=" << batch_size;
        if (shards == 1) {
          // No boundary to cross: the one-shard engine's ledger is all-zero,
          // exactly like the flat engine's.
          EXPECT_EQ(comm, CommStats{}) << "threads=" << threads;
        } else {
          // Real shards move real bytes: every rebuild distributes the
          // snapshot and gathers sweep candidates, so the rebuild side alone
          // accounts for at least one round per rebuild.
          EXPECT_GT(comm.coord_bytes(), 0)
              << "shards=" << shards << " threads=" << threads;
          EXPECT_GT(comm.coord_rounds(), 0)
              << "shards=" << shards << " threads=" << threads;
          EXPECT_GE(comm.rebuild_rounds, got.rebuilds)
              << "shards=" << shards << " threads=" << threads;
          if (!first_comm) {
            // The ledger is NOT bit-identical across cells, but it is
            // deterministic within one: a second run
            // must reproduce it field for field (and the whole RunResult
            // with it). The cell's other thread counts are held to the same
            // ledger below.
            CommStats comm2;
            const RunResult again = run_sharded(n, ups, cfg, shards, threads,
                                                batch_size, nullptr, &comm2);
            EXPECT_EQ(again, got)
                << "shards=" << shards << " threads=" << threads;
            EXPECT_EQ(comm2, comm)
                << "comm ledger diverged on identical replay: shards=" << shards
                << " threads=" << threads << " batch=" << batch_size;
          }
        }
        if (!first_comm) first_comm = comm;
        EXPECT_EQ(comm, *first_comm)
            << "comm ledger differs across thread counts: shards=" << shards
            << " threads=" << threads << " batch=" << batch_size;
        if (!shard_comm) shard_comm = comm;
        EXPECT_EQ(comm, *shard_comm)
            << "comm ledger differs across batch sizes: shards=" << shards
            << " threads=" << threads << " batch=" << batch_size;
      }
    }
  }
}

}  // namespace bmf::testdiff
