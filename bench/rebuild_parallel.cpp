/// Theorem 6.2 rebuild engine: wall clock + bit-identity at 1/2/8 configured
/// threads.
///
/// Three workloads:
///
///  * `static_boost` — one boost_matching run (the initial matching's edge
///    filter takes the thread count; the FrameworkDriver H'/H'_s sweeps are
///    serial); rebuild_ms is the boost wall time.
///  * `churn_rebuilds` — a churning planted matching under the adaptive
///    rebuild schedule: rebuild-dominated dynamic stream, so the rebuild is
///    nearly the whole wall clock.
///  * `deletion_teardown` — planted pairs torn down by consecutive matched
///    deletions: exercises matched-edge repair on long deletion runs.
///
/// Every cell is checked bit-identical against the sequential reference; any
/// divergence prints NO and the process exits non-zero (the bench-smoke CI
/// job doubles as a Release-mode determinism check). The dynamic engine reads
/// no thread count, so its rows differ only by timing noise.

#include <cstdio>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/framework.hpp"
#include "core/oracle.hpp"
#include "dynamic/dynamic_matcher.hpp"
#include "dynamic/weak_oracle.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workloads/dyn_workload.hpp"
#include "workloads/gen.hpp"

using namespace bmf;

namespace {

struct RunState {
  std::vector<Vertex> mates;
  std::int64_t rebuilds = 0;
  std::int64_t weak_calls = 0;
  RebuildStats rebuild_stats;
  /// Every cell runs at one shard, so the ledger must stay all-zero; folding
  /// it into the equality makes a spuriously charged counter flip
  /// `identical` and fail the run (the --quick CI smoke).
  CommStats comm;

  friend bool operator==(const RunState&, const RunState&) = default;
};

// Collected through the abstract engine surface.
RunState state_of(const ReplayEngine& engine) {
  RunState s;
  const LiveEngineView view = engine.view();
  for (Vertex v = 0; v < view.num_vertices(); ++v)
    s.mates.push_back(view.mate_of(v));
  s.rebuilds = engine.rebuilds();
  s.weak_calls = engine.weak_calls();
  s.rebuild_stats = engine.rebuild_stats();
  s.comm = engine.comm_stats();
  return s;
}

void bench_static_boost(benchjson::Writer& out, bool quick) {
  const Vertex n = quick ? 600 : 3000;
  const std::int64_t m = quick ? 2400 : 15000;
  Rng rng(2026);
  const Graph g = gen_random_graph(n, m, rng);

  Table t({"mode", "time (s)", "matching", "oracle calls", "identical"});
  std::vector<Vertex> reference;
  double t1 = 0.0;
  for (const int threads : {1, 2, 8}) {
    RandomGreedyMatchingOracle oracle(7);
    CoreConfig cfg;
    cfg.eps = 0.5;
    cfg.threads = threads;
    Timer timer;
    const BoostResult r = boost_matching(g, oracle, cfg);
    const double s = timer.seconds();
    if (threads == 1) t1 = s;
    std::vector<Vertex> mates;
    for (Vertex v = 0; v < n; ++v) mates.push_back(r.matching.mate(v));
    const bool same = threads == 1 || mates == reference;
    if (threads == 1) reference = std::move(mates);
    char mode[32];
    std::snprintf(mode, sizeof mode, "boost %dT", threads);
    t.add_row({mode, Table::num(s, 3), Table::integer(r.matching.size()),
               Table::integer(r.total_oracle_calls),
               threads == 1 ? "ref" : (same ? "yes" : "NO")});
    out.add({"rebuild_parallel", "static_boost", threads, 0.0, s * 1000.0, 0,
             same});
  }
  char title[96];
  std::snprintf(title, sizeof title,
                "static boost (n=%d, m=%lld, 1T=%.3fs)", n,
                static_cast<long long>(m), t1);
  t.print(title);
}

void bench_dynamic(benchjson::Writer& out, const char* workload,
                   const std::vector<EdgeUpdate>& updates, Vertex n, double eps,
                   std::int64_t batch_size) {
  const auto count = static_cast<double>(updates.size());
  DynamicMatcherConfig cfg;
  cfg.eps = eps;

  double seq_time = 0.0;
  RunState reference;
  {
    MatrixWeakOracle oracle(n);
    DynamicMatcher dm(n, oracle, cfg);
    Timer timer;
    for (const EdgeUpdate& up : updates) dm.apply(up);
    seq_time = timer.seconds();
    reference = state_of(dm);
  }

  Table t({"mode", "time (s)", "updates/sec", "speedup vs seq", "rebuilds",
           "identical"});
  t.add_row({"sequential", Table::num(seq_time, 4),
             Table::num(count / seq_time, 0), Table::num(1.0, 2),
             Table::integer(reference.rebuilds), "ref"});
  for (const int threads : {1, 2, 8}) {
    cfg.threads = threads;
    MatrixWeakOracle oracle(n);
    DynamicMatcher dm(n, oracle, cfg);
    Timer timer;
    for (const auto& batch : slice_updates(updates, batch_size))
      dm.apply_batch(batch);
    const double s = timer.seconds();
    const RunState got = state_of(dm);
    const bool same = got == reference;
    char mode[32];
    std::snprintf(mode, sizeof mode, "batched %dT", threads);
    t.add_row({mode, Table::num(s, 4), Table::num(count / s, 0),
               Table::num(seq_time / s, 2), Table::integer(got.rebuilds),
               same ? "yes" : "NO"});
    benchjson::Record rec{"rebuild_parallel", workload, threads, count / s,
                          s * 1000.0, got.rebuilds, same};
    rec.coord_bytes = got.comm.coord_bytes();
    rec.coord_rounds = got.comm.coord_rounds();
    out.add(rec);
  }
  t.print(workload);
}

}  // namespace

int main(int argc, char** argv) {
  const benchjson::BenchArgs args = benchjson::parse_args(argc, argv);
  std::printf("hardware_concurrency=%u quick=%d\n\n",
              std::thread::hardware_concurrency(), args.quick ? 1 : 0);

  benchjson::Writer out;
  bench_static_boost(out, args.quick);

  {
    const Vertex n = args.quick ? 260 : 1200;
    Rng rng(11);
    const auto updates = dyn_churn_planted(n, args.quick ? 2600 : 16000, rng);
    bench_dynamic(out, "churn_rebuilds", updates, n, 0.25,
                  /*batch_size=*/args.quick ? 64 : 256);
  }

  {
    const Vertex pairs = args.quick ? 700 : 4000;
    const Vertex hubs = pairs / 8;
    Rng rng(13);
    const auto updates = dyn_planted_teardown(pairs, hubs, rng);
    bench_dynamic(out, "deletion_teardown", updates, 2 * pairs + hubs, 1.0,
                  /*batch_size=*/args.quick ? 128 : 512);
  }

  if (!args.json_path.empty() && !out.write(args.json_path)) {
    std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
    return 1;
  }
  if (!out.all_identical()) {
    std::fprintf(stderr, "DIVERGENCE: a parallel run differed from the "
                         "sequential reference\n");
    return 1;
  }
  return 0;
}
