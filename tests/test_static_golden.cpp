/// Golden record for the static boosting paths: `boost_matching` (greedy and
/// random-greedy oracles; eps 1, 0.5 and 0.25; kUntilEmpty, kPaperBound and
/// the unsplit stage ablation), `congest_boost_matching`, `streaming_matching`
/// and `static_weak_matching`, each on graphs with blossoms and subtree
/// steals. Every line spells out the matching's digest, every `BoostOutcome`
/// field and every `FrameworkStats` field, so a change to the phase engine,
/// the structure forest or a driver that moves any output or counter fails
/// here with a readable diff. Regenerate with
///   BMF_UPDATE_GOLDEN=1 ./bmf_tests --gtest_filter='StaticGoldenTrace.*'
/// and justify the diff in the change that needs it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "congest/congest_boost.hpp"
#include "core/framework.hpp"
#include "dynamic/static_weak.hpp"
#include "dynamic/weak_oracle.hpp"
#include "static_inputs.hpp"
#include "stream/streaming_matcher.hpp"

namespace bmf {
namespace {

std::uint64_t mates_digest(const Matching& m) {
  std::uint64_t h = 14695981039346656037ull;
  for (const Vertex v : m.mates()) {
    const auto value = static_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b) {
      h ^= (value >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

using testinputs::golden_graphs;
using testinputs::NamedGraph;

std::string outcome_fields(const BoostOutcome& o) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "scales=%lld phases=%lld bundles=%lld paths=%lld certified=%d "
                "ops=%lld/%lld/%lld/%lld/%lld/%lld",
                static_cast<long long>(o.scales), static_cast<long long>(o.phases),
                static_cast<long long>(o.pass_bundles),
                static_cast<long long>(o.augmenting_paths), o.certified ? 1 : 0,
                static_cast<long long>(o.ops.overtake_unvisited),
                static_cast<long long>(o.ops.overtake_same),
                static_cast<long long>(o.ops.overtake_steal),
                static_cast<long long>(o.ops.contracts),
                static_cast<long long>(o.ops.augments),
                static_cast<long long>(o.ops.backtracks));
  return buf;
}

std::string stats_fields(const FrameworkStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "stage_loops=%lld stage_iterations=%lld ca_iterations=%lld "
                "truncated=%lld sweep_rounds=%lld sweep_arcs=%lld",
                static_cast<long long>(s.stage_loops),
                static_cast<long long>(s.stage_iterations),
                static_cast<long long>(s.ca_iterations),
                static_cast<long long>(s.truncated_loops),
                static_cast<long long>(s.sweep_rounds),
                static_cast<long long>(s.sweep_arcs));
  return buf;
}

std::string matching_fields(const Matching& m) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "size=%lld mates=%016llx",
                static_cast<long long>(m.size()),
                static_cast<unsigned long long>(mates_digest(m)));
  return buf;
}

std::string boost_line(const std::string& head, const BoostResult& r) {
  return head + " " + matching_fields(r.matching) + " " +
         outcome_fields(r.outcome) + " " + stats_fields(r.stats) +
         " initial_calls=" + std::to_string(r.initial_oracle_calls) +
         " total_calls=" + std::to_string(r.total_oracle_calls);
}

std::vector<std::string> golden_lines() {
  std::vector<std::string> lines;
  const std::vector<NamedGraph> graphs = golden_graphs();
  for (const NamedGraph& ng : graphs) {
    for (const double eps : {1.0, 0.5, 0.25}) {
      char eps_text[32];
      std::snprintf(eps_text, sizeof eps_text, "%g", eps);
      struct Mode {
        const char* name;
        IterationMode mode;
        bool stage_split;
      };
      for (const Mode mode : {Mode{"until_empty", IterationMode::kUntilEmpty, true},
                              Mode{"paper_bound", IterationMode::kPaperBound, true},
                              Mode{"unsplit", IterationMode::kUntilEmpty, false}}) {
        CoreConfig cfg;
        cfg.eps = eps;
        cfg.iteration_mode = mode.mode;
        cfg.stage_split = mode.stage_split;
        const std::string head = ng.name + " eps=" + eps_text + " " + mode.name;
        {
          GreedyMatchingOracle oracle;
          lines.push_back(boost_line("boost greedy " + head,
                                     boost_matching(ng.g, oracle, cfg)));
        }
        {
          RandomGreedyMatchingOracle oracle(7);
          lines.push_back(boost_line("boost random_greedy " + head,
                                     boost_matching(ng.g, oracle, cfg)));
        }
      }

      CoreConfig cfg;
      cfg.eps = eps;
      const std::string head = ng.name + " eps=" + eps_text;
      {
        const congest::CongestBoostResult r = congest::congest_boost_matching(ng.g, cfg);
        lines.push_back(boost_line("congest " + head, r.boost) +
                        " oracle_rounds=" + std::to_string(r.oracle_rounds) +
                        " process_rounds=" + std::to_string(r.process_rounds) +
                        " max_structure=" + std::to_string(r.max_structure_size));
      }
      {
        const StreamingResult r = streaming_matching(ng.g, cfg);
        lines.push_back("streaming " + head + " " + matching_fields(r.matching) +
                        " " + outcome_fields(r.outcome) +
                        " passes=" + std::to_string(r.passes) +
                        " peak_words=" + std::to_string(r.peak_memory_words));
      }
      {
        MatrixWeakOracle oracle = MatrixWeakOracle::from_graph(ng.g);
        WeakSimConfig wcfg;
        wcfg.core = cfg;
        wcfg.core.seed = 5;
        const WeakBoostResult r = static_weak_matching(ng.g, oracle, wcfg);
        lines.push_back("static_weak " + head + " " + matching_fields(r.matching) +
                        " " + outcome_fields(r.outcome) +
                        " weak_calls=" + std::to_string(r.weak_calls) +
                        " initial_weak_calls=" + std::to_string(r.initial_weak_calls) +
                        " sampled=" + std::to_string(r.sampled_iterations) +
                        " sweep_rounds=" + std::to_string(r.sweep_rounds) +
                        " sweep_arcs=" + std::to_string(r.sweep_arcs));
      }
    }
  }
  return lines;
}

std::string golden_path() {
  return std::string(BMF_TEST_DATA_DIR) + "/golden/static_traces.txt";
}

TEST(StaticGoldenTrace, StaticPathsMatchRecordedRecord) {
  const std::vector<std::string> lines = golden_lines();

  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read-only env probe before any
  // thread exists; regeneration mode is a single-threaded dev invocation.
  if (std::getenv("BMF_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot write " << golden_path();
    for (const std::string& line : lines) out << line << "\n";
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.is_open())
      << "missing " << golden_path()
      << " — regenerate with BMF_UPDATE_GOLDEN=1 ./bmf_tests "
         "--gtest_filter='StaticGoldenTrace.*'";
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) want.push_back(line);
  ASSERT_EQ(want.size(), lines.size()) << "golden file is stale";
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(lines[i], want[i])
        << "static golden record drifted — if the change is intentional, "
           "regenerate with BMF_UPDATE_GOLDEN=1 and justify the diff";
}

}  // namespace
}  // namespace bmf
