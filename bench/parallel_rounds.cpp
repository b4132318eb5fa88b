/// Thread-pool speedup + determinism check for the pool's three users.
///
/// mpc::Cluster runs each machine's local computation of a superstep on the
/// process-wide fork-join pool and merges private outboxes in id order after
/// a barrier; BestOfKRandomGreedyOracle draws its k samples on the pool into
/// per-sample slots; boost_matching_ensemble runs its repetitions on the pool
/// into per-repetition slots. All three are bit-identical at any thread
/// count. This bench measures the wall-clock effect of each fan-out (the
/// first two on a graph with >= 10^5 edges) and verifies the bit-identical
/// claim at 1/2/4/8 threads: any divergence prints NO and the process exits
/// non-zero. The pool is capped at hardware concurrency, so 8 threads run
/// as many as the host has; on a single-core host the threaded runs only
/// show the pool's scheduling overhead.

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/framework.hpp"
#include "core/oracle.hpp"
#include "mpc/cluster.hpp"
#include "mpc/mpc_matching.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workloads/gen.hpp"

using namespace bmf;

int main() {
  constexpr int kThreadCounts[] = {1, 2, 4, 8};
  constexpr int kRepeats = 3;
  bool all_identical = true;

  Rng grng(1);
  const Graph g = gen_random_graph(60000, 150000, grng);
  const OracleGraph h = to_oracle_graph(g);
  std::printf("graph: n=%d m=%lld, hardware_concurrency=%u\n\n",
              g.num_vertices(), static_cast<long long>(g.num_edges()),
              std::thread::hardware_concurrency());

  // --- MPC: priority-peeling maximal matching, 16 machines. -----------------
  {
    Table t({"threads", "best time (s)", "speedup vs 1T", "|M|", "rounds",
             "identical"});
    double base = 0.0;
    OracleMatching reference;
    for (int threads : kThreadCounts) {
      mpc::MpcConfig cfg;
      cfg.machines = 16;
      cfg.threads = threads;
      double best = 0.0;
      mpc::MpcMatchingResult result;
      for (int rep = 0; rep < kRepeats; ++rep) {
        mpc::Cluster cluster(cfg);
        Rng rng(7);
        Timer timer;
        mpc::MpcMatchingResult r = mpc::mpc_maximal_matching(cluster, h, rng);
        const double s = timer.seconds();
        if (rep == 0 || s < best) best = s;
        result = std::move(r);
      }
      if (threads == 1) {
        base = best;
        reference = result.matching;
      }
      const bool same = result.matching == reference;
      all_identical = all_identical && same;
      t.add_row({Table::integer(threads), Table::num(best, 4),
                 Table::num(base / best, 2),
                 Table::integer(static_cast<std::int64_t>(result.matching.size())),
                 Table::integer(result.rounds), same ? "yes" : "NO"});
    }
    t.print("MPC Cluster::superstep fan-out (16 machines, 150k edges)");
  }

  // --- Framework: parallel best-of-k oracle sampling. -----------------------
  {
    Table t({"threads", "best time (s)", "speedup vs 1T", "|M|", "identical"});
    double base = 0.0;
    OracleMatching reference;
    for (int threads : kThreadCounts) {
      double best = 0.0;
      OracleMatching result;
      for (int rep = 0; rep < kRepeats; ++rep) {
        BestOfKRandomGreedyOracle oracle(11, 16, threads);
        Timer timer;
        OracleMatching m = oracle.find_matching(h);
        const double s = timer.seconds();
        if (rep == 0 || s < best) best = s;
        result = std::move(m);
      }
      if (threads == 1) {
        base = best;
        reference = result;
      }
      const bool same = result == reference;
      all_identical = all_identical && same;
      t.add_row({Table::integer(threads), Table::num(best, 4),
                 Table::num(base / best, 2),
                 Table::integer(static_cast<std::int64_t>(result.size())),
                 same ? "yes" : "NO"});
    }
    t.print("BestOfKRandomGreedyOracle sampling fan-out (k=16, 150k edges)");
  }

  // --- Framework: boost_matching_ensemble repetitions. ----------------------
  {
    Rng erng(7);
    const Graph eg = gen_random_graph(2000, 8000, erng);
    const OracleFactory make_oracle = [](std::uint64_t seed) {
      return std::make_unique<RandomGreedyMatchingOracle>(seed);
    };
    Table t({"threads", "best time (s)", "speedup vs 1T", "|M|", "identical"});
    double base = 0.0;
    EnsembleResult reference;
    for (int threads : kThreadCounts) {
      CoreConfig cfg;
      cfg.eps = 0.5;
      cfg.threads = threads;
      double best = 0.0;
      EnsembleResult result;
      for (int rep = 0; rep < kRepeats; ++rep) {
        Timer timer;
        EnsembleResult r = boost_matching_ensemble(eg, make_oracle, cfg, 8);
        const double s = timer.seconds();
        if (rep == 0 || s < best) best = s;
        result = std::move(r);
      }
      if (threads == 1) {
        base = best;
        reference = result;
      }
      const bool same =
          result.best.matching.edge_list() == reference.best.matching.edge_list() &&
          result.sizes == reference.sizes;
      all_identical = all_identical && same;
      t.add_row({Table::integer(threads), Table::num(best, 4),
                 Table::num(base / best, 2),
                 Table::integer(result.best.matching.size()),
                 same ? "yes" : "NO"});
    }
    t.print("boost_matching_ensemble repetition fan-out (8 repetitions, eps 0.5, 8k edges)");
  }

  if (!all_identical) {
    std::fprintf(stderr, "DIVERGENCE: a threaded run differed from the "
                         "1-thread reference\n");
    return 1;
  }
  return 0;
}
