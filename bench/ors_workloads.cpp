/// ORS — Section 7.3: ordered Ruzsa-Szemerédi workloads (Theorem 7.4 regime).
///
/// Generates ORS graphs (trivial and greedy-ordered), verifies Definition 7.2,
/// and measures the dynamic matcher on ORS-derived update streams against
/// random churn. ORS instances concentrate large induced matchings on few
/// vertices — exactly the structures that make vertex-sampling oracles work
/// hardest, which is why ORS(n, Theta(n)) appears in Theorem 7.4's bound.

#include <cstdio>

#include "dynamic/dynamic_matcher.hpp"
#include "ors/ors.hpp"
#include "util/timer.hpp"
#include "util/table.hpp"
#include "workloads/dyn_workload.hpp"

int main() {
  using namespace bmf;

  Table gen({"construction", "n", "r", "t achieved", "edges", "verified"});
  {
    const OrsGraph triv = ors_trivial(240, 8, 15);
    gen.add_row({"trivial (disjoint)", Table::integer(triv.n),
                 Table::integer(triv.r()), Table::integer(triv.t()),
                 Table::integer(triv.graph().num_edges()),
                 verify_ors(triv) ? "yes" : "NO"});
  }
  for (std::uint64_t seed : {1u, 2u}) {
    Rng rng(seed);
    const OrsGraph ors = ors_greedy_random(240, 8, 60, rng);
    gen.add_row({("greedy-ordered seed=" + std::to_string(seed)).c_str(),
                 Table::integer(ors.n), Table::integer(ors.r()),
                 Table::integer(ors.t()),
                 Table::integer(ors.graph().num_edges()),
                 verify_ors(ors) ? "yes" : "NO"});
  }
  gen.print("ORS constructions (Definition 7.2); trivial t = n/2r = 15");

  // Dynamic matcher on ORS streams vs random churn of the same length.
  Table t({"workload", "updates", "us/update", "rebuilds", "A_weak calls"});
  Rng rng(5);
  const OrsGraph ors = ors_greedy_random(200, 10, 40, rng);
  const auto ors_updates = ors_update_sequence(ors);
  {
    DynamicMatcherConfig cfg;
    cfg.eps = 0.25;
    DynamicMatcher dm(ors.n, cfg);
    Timer timer;
    for (const EdgeUpdate& up : ors_updates) dm.apply(up);
    t.add_row({"ORS insert+delete", Table::integer(static_cast<std::int64_t>(
                                        ors_updates.size())),
               Table::num(timer.micros() / static_cast<double>(ors_updates.size()), 1),
               Table::integer(dm.rebuilds()), Table::integer(dm.weak_calls())});
  }
  {
    Rng r2(6);
    const auto rand_updates =
        dyn_random_updates(ors.n, static_cast<std::int64_t>(ors_updates.size()),
                           0.7, r2);
    DynamicMatcherConfig cfg;
    cfg.eps = 0.25;
    DynamicMatcher dm(ors.n, cfg);
    Timer timer;
    for (const EdgeUpdate& up : rand_updates) dm.apply(up);
    t.add_row({"random churn (same length)",
               Table::integer(static_cast<std::int64_t>(rand_updates.size())),
               Table::num(timer.micros() / static_cast<double>(rand_updates.size()), 1),
               Table::integer(dm.rebuilds()), Table::integer(dm.weak_calls())});
  }
  t.print("Dynamic matcher on ORS-hard vs random update streams (eps = 1/4)");
  return 0;
}
