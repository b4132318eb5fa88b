/// L53 — Lemma 5.3 and Lemma 6.7: the initial Theta(1)-approximate matching.
///
/// Lemma 5.3: a 4-approximation from at most 2c A_matching calls (iterate on
/// the subgraph of free vertices). Lemma 6.7: a 3-approximation from
/// O(1/(delta*lambda)) A_weak calls. We measure the call counts and the
/// achieved approximation across workload families; with a greedy (maximal)
/// oracle the loop collapses after one productive call, comfortably inside
/// the bound.

#include <cstdio>

#include "core/framework.hpp"
#include "dynamic/static_weak.hpp"
#include "dynamic/weak_oracle.hpp"
#include "matching/blossom_exact.hpp"
#include "util/table.hpp"
#include "workloads/gen.hpp"

int main() {
  using namespace bmf;
  Rng rng(17);

  struct Item {
    const char* name;
    Graph g;
  };
  const Item items[] = {
      {"random n=2000 m=8000", gen_random_graph(2000, 8000, rng)},
      {"bipartite 1000+1000", gen_random_bipartite(1000, 1000, 6000, rng)},
      {"planted n=2000", gen_planted_matching(2000, 2000, rng)},
      {"chains 128 x k=4", gen_augmenting_chains(128, 4)},
      {"clique pair k=60", gen_clique_pair(60)},
  };

  Table t({"workload", "A_matching calls", "bound 2c+1", "|M0|", "mu", "approx",
           "A_weak calls", "|M0| (weak)"});
  for (const Item& item : items) {
    GreedyMatchingOracle oracle;
    CoreConfig cfg;
    const Matching m0 = framework_initial_matching(item.g, oracle, cfg);
    const std::int64_t mu = maximum_matching_size(item.g);

    MatrixWeakOracle weak = MatrixWeakOracle::from_graph(item.g);
    WeakSimConfig wcfg;
    const Matching w0 = weak_initial_matching(item.g.num_vertices(), weak, wcfg);

    t.add_row({item.name, Table::integer(oracle.calls()),
               Table::integer(
                   CoreConfig::initial_matching_calls(oracle.approx_factor())),
               Table::integer(m0.size()), Table::integer(mu),
               Table::num(static_cast<double>(mu) /
                              static_cast<double>(std::max<std::int64_t>(1, m0.size())),
                          3),
               Table::integer(weak.calls()), Table::integer(w0.size())});
  }
  t.print("Lemma 5.3 / 6.7: initial-matching oracle calls and quality");
  std::printf("every approx column must be <= 4 (Lemma 5.3) resp. <= 3 (Lemma 6.7)\n"
              "for graphs with a large matching; maximal oracles give <= 2.\n");
  return 0;
}
