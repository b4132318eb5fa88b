#pragma once

/// Update-sequence generators for the fully dynamic experiments (Table 2).
///
/// All generators track the evolving edge set so every emitted update is
/// valid (no duplicate insertions, no deletions of absent edges) and the
/// graph starts empty, as Problem 1 requires.

#include <cstdint>
#include <span>
#include <vector>

#include "dynamic/dynamic_matcher.hpp"
#include "util/rng.hpp"

namespace bmf {

/// Mixed random insertions/deletions: each step inserts a fresh uniform edge
/// with probability insert_prob (or when nothing is deletable), otherwise
/// deletes a uniform existing edge.
[[nodiscard]] std::vector<EdgeUpdate> dyn_random_updates(Vertex n,
                                                         std::int64_t count,
                                                         double insert_prob,
                                                         Rng& rng);

/// Sliding window: always insert a fresh edge; once `window` edges are live,
/// each insertion is preceded by deleting the oldest edge.
[[nodiscard]] std::vector<EdgeUpdate> dyn_sliding_window(Vertex n,
                                                         std::int64_t window,
                                                         std::int64_t count,
                                                         Rng& rng);

/// Churning planted matching: builds a perfect matching, then repeatedly
/// deletes a random *matched-structure* edge and re-inserts a replacement
/// keeping a near-perfect matching present; stresses the rebuild path because
/// mu stays Theta(n) while the witness keeps moving.
[[nodiscard]] std::vector<EdgeUpdate> dyn_churn_planted(Vertex n,
                                                        std::int64_t count,
                                                        Rng& rng);

/// Planted pairs (2i, 2i+1) built up by insertions, every pair endpoint also
/// wired to a small shared hub set, then the planted matching torn down by
/// deleting each pair edge once in shuffled order: the teardown is a maximal
/// run of consecutive matched-edge deletions with pairwise-disjoint
/// endpoints, and the hubs make freed endpoints compete for the same rematch
/// candidates. Uses vertices [0, 2*pairs + hubs).
[[nodiscard]] std::vector<EdgeUpdate> dyn_planted_teardown(Vertex pairs,
                                                           Vertex hubs, Rng& rng);

/// Vertex-partition-aware stream: vertices are split into `shards`
/// contiguous ceil-sized blocks (the last block takes the remainder), and
/// each insertion is intra-shard (both endpoints drawn from one uniformly
/// chosen block) with probability 1 - cross_fraction, or cross-shard
/// (endpoints from two distinct blocks) otherwise; deletions pick a uniform
/// live edge. cross_fraction ~ 0 keeps updates shard-local
/// (the cheap routing regime), ~ 1 makes every edge straddle shards, so a
/// toggle's two directed copies land in different shards. Every emitted
/// update is valid and the graph starts empty. Requires n >= 2 * shards;
/// blocks the ceil split leaves too small to host a draw (empty, or
/// single-vertex for intra-shard edges) are excluded from shard selection.
[[nodiscard]] std::vector<EdgeUpdate> dyn_shard_partitioned(
    Vertex n, int shards, std::int64_t count, double cross_fraction,
    double insert_prob, Rng& rng);

/// Mixed-churn stream for the differential harness: rotates through four
/// regimes in fixed-length phases — an insert-heavy burst, a planted-pair
/// build-up immediately torn down by consecutive matched-edge deletions, a
/// deletion-heavy random mix, and an oldest-first eviction sweep — so one
/// stream exercises insertion matching, matched-edge repair, rebuild
/// triggers, and evictions back to back. Every emitted update is valid and
/// the graph starts empty.
[[nodiscard]] std::vector<EdgeUpdate> dyn_mixed_churn(Vertex n, std::int64_t count,
                                                      Rng& rng);

/// Cuts an update stream into consecutive batches of `batch_size` updates
/// (the last batch may be shorter). Feeding the slices to
/// `DynamicMatcher::apply_batch` in order replays the stream exactly.
[[nodiscard]] std::vector<std::vector<EdgeUpdate>> slice_updates(
    std::span<const EdgeUpdate> updates, std::int64_t batch_size);

/// Batched bursts with endpoint skew: like dyn_random_updates but emitted as
/// ready-made batches, with a `hot_fraction` of insertions drawn from a small
/// hot vertex set (|hot| = max(2, n/16)). Hot bursts force endpoint conflicts
/// inside a batch, stressing apply_batch's conflict-resolution pass rather
/// than its embarrassingly-parallel fast path.
[[nodiscard]] std::vector<std::vector<EdgeUpdate>> dyn_batched_bursts(
    Vertex n, std::int64_t batches, std::int64_t batch_size, double insert_prob,
    double hot_fraction, Rng& rng);

}  // namespace bmf
