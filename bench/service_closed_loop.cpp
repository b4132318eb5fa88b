/// MatchingService closed-loop bench: updates/sec through the ingest
/// queue + writer pipeline and snapshot-read latency percentiles (p50/p99)
/// under concurrent readers, in the two classic arrival models:
///
///  * **closed** — the producer blocks on `submit`, so queue backpressure
///    paces it: offered load adapts to service throughput (no drops; every
///    update commits);
///  * **open** — the producer fires `try_submit` bursts on a fixed schedule
///    regardless of service progress; when the bounded queue is full the
///    update is dropped and counted, like an overloaded front-end shedding
///    load.
///
/// Readers spin on a `SnapshotReader` (one yield per read — this bench also
/// runs on small CI boxes), timing each `size()` query. Reads are wait-free
/// snapshot loads, so the percentiles measure the read path itself, not
/// writer contention.
///
/// The identity column is the service's correctness contract, not bit-level
/// replay (coalescing is timing-dependent by design): the final published
/// matching must equal the sequential engine run over exactly the *accepted*
/// update sequence. Exits non-zero on divergence; the bench-smoke CI job runs
/// `--quick --json` into BENCH_pr.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "dynamic/dynamic_matcher.hpp"
#include "dynamic/weak_oracle.hpp"
#include "service/matching_service.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workloads/dyn_workload.hpp"

using namespace bmf;

namespace {

struct ReadSample {
  std::vector<double> lat_us;
  std::int64_t reads = 0;
};

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

std::vector<Vertex> sequential_mates(Vertex n, std::span<const EdgeUpdate> ups,
                                     const DynamicMatcherConfig& core) {
  MatrixWeakOracle oracle(n);
  DynamicMatcherConfig cfg = core;
  cfg.threads = 1;
  DynamicMatcher dm(n, oracle, cfg);
  for (const EdgeUpdate& up : ups) dm.apply(up);
  std::vector<Vertex> mates;
  for (Vertex v = 0; v < n; ++v) mates.push_back(dm.matching().mate(v));
  return mates;
}

struct ModeResult {
  double wall_s = 0.0;
  std::int64_t accepted = 0;
  std::int64_t dropped = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::int64_t reads = 0;
  ServiceStats stats;
  bool identical = false;
};

ModeResult run_mode(bool open_loop, Vertex n,
                    const std::vector<EdgeUpdate>& updates,
                    const ServiceConfig& cfg, int reader_count,
                    std::int64_t burst, std::chrono::microseconds period) {
  MatchingService svc(n, cfg);

  std::atomic<bool> stop{false};
  std::vector<ReadSample> samples(static_cast<std::size_t>(reader_count));
  std::vector<std::thread> readers;
  readers.reserve(static_cast<std::size_t>(reader_count));
  for (int t = 0; t < reader_count; ++t) {
    readers.emplace_back([&, t] {
      SnapshotReader reader(svc);
      ReadSample& s = samples[static_cast<std::size_t>(t)];
      while (!stop.load(std::memory_order_acquire)) {
        Timer timer;
        (void)reader.size();
        s.lat_us.push_back(timer.seconds() * 1e6);
        ++s.reads;
        std::this_thread::yield();
      }
    });
  }

  ModeResult r;
  std::vector<EdgeUpdate> accepted;
  accepted.reserve(updates.size());
  Timer wall;
  if (!open_loop) {
    for (const EdgeUpdate& up : updates) {
      if (!svc.submit(up)) break;
      accepted.push_back(up);
    }
  } else {
    auto deadline = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < updates.size(); i += static_cast<std::size_t>(burst)) {
      const std::size_t end =
          std::min(updates.size(), i + static_cast<std::size_t>(burst));
      for (std::size_t j = i; j < end; ++j) {
        if (svc.try_submit(updates[j]))
          accepted.push_back(updates[j]);
        else
          ++r.dropped;
      }
      deadline += period;
      std::this_thread::sleep_until(deadline);
    }
  }
  svc.flush();
  r.wall_s = wall.seconds();
  stop.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();

  r.accepted = static_cast<std::int64_t>(accepted.size());
  const auto fin = svc.latest();
  svc.close();
  r.stats = svc.stats();

  std::vector<double> all;
  for (ReadSample& s : samples) {
    all.insert(all.end(), s.lat_us.begin(), s.lat_us.end());
    r.reads += s.reads;
  }
  r.p50_us = percentile(all, 0.50);
  r.p99_us = percentile(all, 0.99);

  const std::vector<Vertex> want = sequential_mates(n, accepted, cfg);
  r.identical =
      fin->updates_applied() == r.accepted &&
      std::equal(want.begin(), want.end(), fin->mates().begin(),
                 fin->mates().end());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const benchjson::BenchArgs args = benchjson::parse_args(argc, argv);
  std::printf("hardware_concurrency=%u quick=%d\n\n",
              std::thread::hardware_concurrency(), args.quick ? 1 : 0);

  benchjson::Writer out;
  Table table({"mode", "updates/sec", "epochs", "mean batch", "p50 us",
               "p99 us", "reads", "dropped", "identical"});

  struct Scenario {
    const char* name;
    bool open_loop;
    Vertex n;
    std::int64_t count;
    std::int64_t rebuild_every;
  };
  const int readers = 2;
  const std::vector<Scenario> scenarios = {
      // Throughput story: rebuilds pushed out of the measurement window.
      {"closed/throughput", false, args.quick ? Vertex{4000} : Vertex{20000},
       args.quick ? 20000 : 100000, std::int64_t{1} << 30},
      // Rebuild story: adaptive Theorem 6.2 rebuilds inside the loop.
      {"closed/rebuilds", false, args.quick ? Vertex{200} : Vertex{300},
       args.quick ? 2000 : 5000, 0},
      // Open arrivals: fixed-rate bursts, queue overflow sheds load.
      {"open/throughput", true, args.quick ? Vertex{4000} : Vertex{20000},
       args.quick ? 20000 : 100000, std::int64_t{1} << 30},
  };

  bool all_identical = true;
  for (const Scenario& sc : scenarios) {
    Rng rng(99);
    const auto updates = dyn_random_updates(sc.n, sc.count, 0.75, rng);
    ServiceConfig cfg;
    cfg.shards = 2;
    cfg.threads = 2;
    cfg.rebuild_every = sc.rebuild_every;
    cfg.queue_capacity = 4096;
    cfg.coalesce_max = 512;
    cfg.max_lag = 2;
    const ModeResult r =
        run_mode(sc.open_loop, sc.n, updates, cfg, readers,
                 /*burst=*/1024, std::chrono::microseconds(2000));

    const double ups_per_sec =
        static_cast<double>(r.accepted) / std::max(r.wall_s, 1e-9);
    const double mean_batch =
        r.stats.epochs > 0 ? static_cast<double>(r.stats.updates_committed) /
                                 static_cast<double>(r.stats.epochs)
                           : 0.0;
    table.add_row({sc.name, Table::num(ups_per_sec, 0),
                   Table::integer(r.stats.epochs), Table::num(mean_batch, 1),
                   Table::num(r.p50_us, 2), Table::num(r.p99_us, 2),
                   Table::integer(r.reads), Table::integer(r.dropped),
                   r.identical ? "yes" : "NO"});
    benchjson::Record rec;
    rec.bench = "service_closed_loop";
    rec.workload = sc.name;
    rec.threads = readers;
    rec.updates_per_sec = ups_per_sec;
    rec.rebuild_ms = r.wall_s * 1000.0;
    rec.rebuilds = r.stats.rebuilds;
    rec.identical = r.identical;
    rec.read_p50_us = r.p50_us;
    rec.read_p99_us = r.p99_us;
    out.add(rec);
    all_identical = all_identical && r.identical;
  }
  table.print("matching service closed/open-loop (2 readers, 1 writer)");

  if (!args.json_path.empty() && !out.write(args.json_path)) {
    std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
    return 1;
  }
  if (!all_identical) {
    std::fprintf(stderr, "DIVERGENCE: a service run differed from the "
                         "sequential reference over its accepted updates\n");
    return 1;
  }
  return 0;
}
