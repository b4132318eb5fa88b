/// Command-line front end: run the boosting framework (or the streaming /
/// weighted pipelines) on a graph file.
///
/// Usage:
///   bmf_cli <file> [--eps E] [--mode framework|streaming|weighted]
///           [--format edgelist|dimacs] [--exact]
///
/// With no file, runs on a built-in demo graph. `--exact` also computes
/// mu(G) via Edmonds' algorithm and prints the achieved ratio.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/framework.hpp"
#include "io/graph_io.hpp"
#include "matching/blossom_exact.hpp"
#include "stream/streaming_matcher.hpp"
#include "util/timer.hpp"
#include "weighted/weighted.hpp"
#include "workloads/gen.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: bmf_cli [file] [--eps E] [--mode framework|streaming|"
               "weighted] [--format edgelist|dimacs] [--exact]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bmf;
  std::string file, mode = "framework", format = "edgelist";
  double eps = 0.25;
  bool exact = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--eps") {
      eps = std::atof(next());
    } else if (arg == "--mode") {
      mode = next();
    } else if (arg == "--format") {
      format = next();
    } else if (arg == "--exact") {
      exact = true;
    } else if (arg.rfind("--", 0) == 0) {
      usage();
      return 2;
    } else {
      file = arg;
    }
  }
  if (!(eps > 0 && eps <= 1)) {  // also rejects NaN
    std::fprintf(stderr, "eps must be in (0, 1]\n");
    return 2;
  }

  try {
    if (mode == "weighted") {
      WeightedGraph wg;
      if (file.empty()) {
        Rng rng(1);
        const Graph g = gen_random_graph(400, 1600, rng);
        wg.n = g.num_vertices();
        for (const Edge& e : g.edges())
          wg.edges.push_back({e.u, e.v, 1.0 + rng.next_double() * 99.0});
      } else {
        std::ifstream in(file);
        if (!in.good()) {
          std::fprintf(stderr, "cannot open %s\n", file.c_str());
          return 1;
        }
        wg = read_weighted_edge_list(in);
      }
      Timer t;
      const WeightedBoostResult r = boosted_weighted_matching(wg, eps, CoreConfig{});
      std::printf("weighted: n=%d m=%zu  |M|=%zu  weight=%.2f  classes=%lld  "
                  "oracle calls=%lld  (%.1f ms)\n",
                  wg.n, wg.edges.size(), r.matching.size(), r.weight,
                  static_cast<long long>(r.classes),
                  static_cast<long long>(r.oracle_calls), t.millis());
      const auto greedy = greedy_weighted_matching(wg);
      std::printf("greedy 2-approx baseline: weight=%.2f\n",
                  matching_weight(wg, greedy));
      return 0;
    }

    Graph g;
    if (file.empty()) {
      Rng rng(1);
      g = gen_planted_matching(2000, 6000, rng);
      std::printf("(no file given; using a built-in planted-matching demo)\n");
    } else {
      std::ifstream in(file);
      if (!in.good()) {
        std::fprintf(stderr, "cannot open %s\n", file.c_str());
        return 1;
      }
      g = (format == "dimacs") ? read_dimacs(in) : read_edge_list(in);
    }

    CoreConfig cfg;
    cfg.eps = eps;
    Timer t;
    std::int64_t size = 0;
    if (mode == "streaming") {
      const StreamingResult r = streaming_matching(g, cfg);
      size = r.matching.size();
      std::printf("streaming: n=%d m=%lld  |M|=%lld  passes=%lld  (%.1f ms)\n",
                  g.num_vertices(), static_cast<long long>(g.num_edges()),
                  static_cast<long long>(size), static_cast<long long>(r.passes),
                  t.millis());
    } else if (mode == "framework") {
      GreedyMatchingOracle oracle;
      const BoostResult r = boost_matching(g, oracle, cfg);
      size = r.matching.size();
      std::printf(
          "framework: n=%d m=%lld  |M|=%lld  oracle calls=%lld  certified=%s"
          "  (%.1f ms)\n",
          g.num_vertices(), static_cast<long long>(g.num_edges()),
          static_cast<long long>(size),
          static_cast<long long>(r.total_oracle_calls),
          r.outcome.certified ? "yes" : "no", t.millis());
    } else {
      usage();
      return 2;
    }
    if (exact) {
      const std::int64_t mu = maximum_matching_size(g);
      std::printf("exact mu(G)=%lld  ratio=%.4f (guarantee <= %.4f)\n",
                  static_cast<long long>(mu),
                  size > 0 ? static_cast<double>(mu) / static_cast<double>(size)
                           : 1.0,
                  1.0 + eps);
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
  return 0;
}
