/// Sharded vertex-partition dynamic engine throughput + determinism check.
///
/// ShardedDynamicMatcher partitions the vertex set into k shards, routes each
/// update's two directed copies to their owning shards, keeps matching
/// commits on the serial coordinator, and replays the Theorem 6.2 rebuild
/// budget globally — bit-identical to the sequential DynamicMatcher at any
/// (shards x threads), including rebuild positions and A_weak call counts
/// (src/dynamic/sharded_matcher.hpp). Everything runs on the calling thread;
/// the `threads` axis only checks that the knob changes nothing. This bench
/// measures updates/sec across the (shards x threads) grid against the
/// one-at-a-time reference and verifies the identity:
///
///  * a large update-path run (rebuilds pushed out of the measurement) where
///    shard routing is the whole story;
///  * a small adaptive-rebuild run where rebuild positions, rebuild counts,
///    and A_weak call counts must line up exactly as well, and where the
///    comm ledger's rebuild side is charged.
///
/// Exits non-zero on any shard-count divergence (the bench-smoke CI job runs
/// this in --quick --json mode into BENCH_pr.json).

#include <cstdio>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "dynamic/dynamic_matcher.hpp"
#include "dynamic/sharded_matcher.hpp"
#include "dynamic/weak_oracle.hpp"
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
  RebuildStats rebuild_stats;

  friend bool operator==(const RunState&, const RunState&) = default;
};

// One collector over the abstract engine surface serves both the sequential
// reference and every sharded grid point (it used to be two facade-specific
// copies). The comm ledger is collected separately: it is per-cell
// deterministic but NOT part of the cross-cell identity (replay_core.hpp).
RunState state_of(const ReplayEngine& engine) {
  RunState s;
  const LiveEngineView view = engine.view();
  for (Vertex v = 0; v < view.num_vertices(); ++v)
    s.mates.push_back(view.mate_of(v));
  s.edges = engine.snapshot().num_edges();
  s.rebuilds = engine.rebuilds();
  s.weak_calls = engine.weak_calls();
  s.rebuild_stats = engine.rebuild_stats();
  return s;
}

void run_comparison(benchjson::Writer& out, const char* workload,
                    const char* title, Vertex n,
                    const std::vector<EdgeUpdate>& updates, double eps,
                    std::int64_t rebuild_every, std::int64_t batch_size) {
  const auto batches = slice_updates(updates, batch_size);
  const auto count = static_cast<double>(updates.size());

  double seq_time = 0.0;
  RunState reference;
  {
    MatrixWeakOracle oracle(n);
    DynamicMatcherConfig cfg;
    cfg.eps = eps;
    cfg.rebuild_every = rebuild_every;
    DynamicMatcher dm(n, oracle, cfg);
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
  for (const int shards : {1, 4}) {
    for (const int threads : {1, 2, 8}) {
      ShardedMatcherConfig cfg;
      cfg.eps = eps;
      cfg.rebuild_every = rebuild_every;
      cfg.shards = shards;
      cfg.threads = threads;
      ShardedDynamicMatcher dm(n, cfg);
      Timer timer;
      for (const auto& batch : batches) dm.apply_batch(batch);
      const double s = timer.seconds();
      const RunState got = state_of(dm);
      const CommStats comm = dm.comm_stats();
      // Single-shard cells have no boundary: a non-zero ledger there is a
      // counting bug and fails the run like any state divergence.
      const bool same = got == reference && (shards > 1 || comm == CommStats{});
      char mode[32];
      std::snprintf(mode, sizeof mode, "s%d x %dT", shards, threads);
      t.add_row({mode, Table::num(s, 4), Table::num(count / s, 0),
                 Table::num(seq_time / s, 2), Table::integer(got.rebuilds),
                 same ? "yes" : "NO"});
      char cell[64];
      std::snprintf(cell, sizeof cell, "%s/s%d", workload, shards);
      benchjson::Record rec{"sharded_dynamic", cell, threads, count / s,
                            s * 1000.0, got.rebuilds, same};
      rec.coord_bytes = comm.coord_bytes();
      rec.coord_rounds = comm.coord_rounds();
      out.add(rec);
    }
  }
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
    const auto updates = dyn_shard_partitioned(
        n, 4, args.quick ? 24000 : 120000, /*cross_fraction=*/0.3,
        /*insert_prob=*/0.75, rng);
    run_comparison(out, "update_path",
                   "sharded update-path throughput (rebuilds excluded)", n,
                   updates, 0.25, /*rebuild_every=*/1 << 30, /*batch_size=*/2048);
  }

  {
    const Vertex n = args.quick ? 200 : 300;
    Rng rng(7);
    const auto updates = dyn_shard_partitioned(
        n, 4, args.quick ? 3000 : 6000, /*cross_fraction=*/0.5,
        /*insert_prob=*/0.7, rng);
    run_comparison(out, "adaptive_rebuilds",
                   "sharded adaptive-rebuild identity (Theorem 6.2 rebuilds)", n,
                   updates, 0.25, /*rebuild_every=*/0, /*batch_size=*/128);
  }

  if (!args.json_path.empty() && !out.write(args.json_path)) {
    std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
    return 1;
  }
  if (!out.all_identical()) {
    std::fprintf(stderr, "DIVERGENCE: a sharded run differed from the "
                         "sequential reference\n");
    return 1;
  }
  return 0;
}
