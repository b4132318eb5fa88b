/// Fully dynamic example: a ride-hailing-style assignment stream (Thm 7.1).
///
/// Drivers and riders appear and disappear; compatibility edges (driver can
/// serve rider) are inserted and deleted online. The matcher maintains a
/// (1+eps)-approximate maximum assignment after every update, with rebuilds
/// powered only by weak induced-subgraph queries (Definition 6.1), which the
/// matcher answers from its own adjacency lists.

#include <cstdio>

#include "dynamic/dynamic_matcher.hpp"
#include "matching/blossom_exact.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workloads/dyn_workload.hpp"

int main() {
  using namespace bmf;

  const Vertex n = 300;  // 150 drivers + 150 riders, ids interleaved
  DynamicMatcherConfig cfg;
  cfg.eps = 0.25;
  DynamicMatcher matcher(n, cfg);

  Rng rng(42);
  const auto updates = dyn_sliding_window(n, /*window=*/700, /*count=*/1500, rng);

  // All reads go through the MatchingView API — the same queries a service
  // snapshot answers, so this dispatcher loop is snapshot-ready as-is.
  const LiveEngineView assignment = matcher.view();

  Timer t;
  std::int64_t step = 0;
  for (const EdgeUpdate& up : updates) {
    matcher.apply(up);
    if (++step % 300 == 0) {
      const Graph snapshot = matcher.graph().snapshot();
      const std::int64_t mu = maximum_matching_size(snapshot);
      std::printf(
          "after %6lld updates: matched pairs = %lld (optimal %lld, ratio "
          "%.4f), live edges = %lld\n",
          static_cast<long long>(step),
          static_cast<long long>(assignment.size()),
          static_cast<long long>(mu),
          mu > 0 ? static_cast<double>(mu) /
                       static_cast<double>(assignment.size())
                 : 1.0,
          static_cast<long long>(matcher.graph().num_edges()));
    }
  }
  std::printf(
      "\nprocessed %lld updates in %.1f ms (%.1f us/update amortized), "
      "%lld rebuilds, %lld A_weak calls\n",
      static_cast<long long>(matcher.updates()), t.millis(),
      t.micros() / static_cast<double>(matcher.updates()),
      static_cast<long long>(matcher.rebuilds()),
      static_cast<long long>(matcher.weak_calls()));

  // Batch mode: the dispatcher accumulates updates (e.g. a tick's worth of
  // arrivals) and applies them in one apply_batch call per tick. The batch
  // determinism contract guarantees the exact same assignment history.
  DynamicMatcher batch_matcher(n, cfg);
  Timer bt;
  for (const auto& tick : slice_updates(updates, /*batch_size=*/200))
    batch_matcher.apply_batch(tick);
  const double batch_ms = bt.millis();

  const LiveEngineView batch_view = batch_matcher.view();
  bool identical = batch_matcher.rebuilds() == matcher.rebuilds() &&
                   batch_view.size() == assignment.size();
  for (Vertex v = 0; identical && v < n; ++v)
    identical = batch_view.mate_of(v) == assignment.mate_of(v);
  std::printf(
      "batch mode (ticks of 200): %.1f ms (%.1f us/update), %lld rebuilds, "
      "bit-identical to one-at-a-time: %s\n",
      batch_ms, 1000.0 * batch_ms / static_cast<double>(batch_matcher.updates()),
      static_cast<long long>(batch_matcher.rebuilds()),
      identical ? "yes" : "NO");
  return identical ? 0 : 1;
}
