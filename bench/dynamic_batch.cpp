/// Batched dynamic update throughput + determinism check.
///
/// DynamicMatcher::apply_batch validates a whole batch, then applies it one
/// update at a time — the sequential apply loop behind one call (the
/// determinism contract in src/dynamic/replay_core.hpp). This bench measures
/// updates/sec of the batched entry point against the one-at-a-time loop,
/// and verifies the identity:
///
///  * a large update-path run (rebuilds pushed out of the measurement), where
///    the batched rows show the per-batch overhead and nothing else;
///  * a small adaptive-rebuild run where rebuild positions, rebuild counts,
///    and A_weak call counts must line up exactly as well.

#include <cstdio>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "dynamic/dynamic_matcher.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workloads/dyn_workload.hpp"

using namespace bmf;

namespace {

struct RunState {
  std::vector<Vertex> mates;
  std::int64_t edges = 0;
  std::int64_t rebuilds = 0;
  std::int64_t weak_calls = 0;

  friend bool operator==(const RunState&, const RunState&) = default;
};

// Collected through the abstract engine surface.
RunState state_of(const ReplayEngine& engine) {
  RunState s;
  const LiveEngineView view = engine.view();
  for (Vertex v = 0; v < view.num_vertices(); ++v)
    s.mates.push_back(view.mate_of(v));
  s.edges = engine.snapshot().num_edges();
  s.rebuilds = engine.rebuilds();
  s.weak_calls = engine.weak_calls();
  return s;
}

void run_comparison(benchjson::Writer& out, const char* workload,
                    const char* title, Vertex n,
                    const std::vector<EdgeUpdate>& updates, double eps,
                    std::int64_t rebuild_every, std::int64_t batch_size) {
  const auto batches = slice_updates(updates, batch_size);
  const auto count = static_cast<double>(updates.size());

  DynamicMatcherConfig cfg;
  cfg.eps = eps;
  cfg.rebuild_every = rebuild_every;

  double seq_time = 0.0;
  RunState reference;
  {
    DynamicMatcher dm(n, cfg);
    Timer t;
    for (const EdgeUpdate& up : updates) dm.apply(up);
    seq_time = t.seconds();
    reference = state_of(dm);
  }

  Table t({"mode", "time (s)", "updates/sec", "speedup vs seq", "rebuilds",
           "identical"});
  t.add_row({"sequential", Table::num(seq_time, 4),
             Table::num(count / seq_time, 0), Table::num(1.0, 2),
             Table::integer(reference.rebuilds), "ref"});
  DynamicMatcher dm(n, cfg);
  Timer timer;
  for (const auto& batch : batches) dm.apply_batch(batch);
  const double s = timer.seconds();
  const RunState got = state_of(dm);
  const bool same = got == reference;
  t.add_row({"batched", Table::num(s, 4), Table::num(count / s, 0),
             Table::num(seq_time / s, 2), Table::integer(got.rebuilds),
             same ? "yes" : "NO"});
  out.add({"dynamic_batch", workload, 1, count / s, s * 1000.0, got.rebuilds,
           same});
  t.print(title);
}

}  // namespace

int main(int argc, char** argv) {
  const benchjson::BenchArgs args = benchjson::parse_args(argc, argv);
  std::printf("hardware_concurrency=%u quick=%d\n\n",
              std::thread::hardware_concurrency(), args.quick ? 1 : 0);

  benchjson::Writer out;
  {
    const Vertex n = args.quick ? 4000 : 20000;
    Rng rng(2025);
    const auto updates =
        dyn_random_updates(n, args.quick ? 24000 : 120000, 0.75, rng);
    run_comparison(
        out, "update_path",
        "update-path throughput (rebuilds excluded)", n, updates, 0.25,
        /*rebuild_every=*/1 << 30, /*batch_size=*/2048);
  }

  {
    const Vertex n = args.quick ? 200 : 300;
    Rng rng(7);
    const auto updates = dyn_random_updates(n, args.quick ? 3000 : 6000, 0.7, rng);
    run_comparison(out, "adaptive_rebuilds",
                   "adaptive-rebuild identity (Theorem 6.2 rebuilds)", n,
                   updates, 0.25, /*rebuild_every=*/0, /*batch_size=*/128);
  }

  {
    // Phase-rotating churn on a fixed rebuild cadence: insert bursts,
    // matched-edge teardowns, deletion-heavy mixes and eviction sweeps in one
    // stream, with rebuilds firing inside batches throughout.
    const Vertex n = args.quick ? 200 : 300;
    Rng rng(13);
    const auto updates = dyn_mixed_churn(n, args.quick ? 3000 : 6000, rng);
    run_comparison(out, "mixed_churn", "mixed-churn identity", n, updates,
                   0.25, /*rebuild_every=*/24, /*batch_size=*/128);
  }

  if (!args.json_path.empty() && !out.write(args.json_path)) {
    std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
    return 1;
  }
  if (!out.all_identical()) {
    std::fprintf(stderr, "DIVERGENCE: a batched run differed from the "
                         "sequential reference\n");
    return 1;
  }
  return 0;
}
