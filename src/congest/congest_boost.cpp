#include "congest/congest_boost.hpp"

namespace bmf::congest {
namespace {

/// Delegates the simulation to FrameworkDriver and accounts A_process rounds
/// per pass-bundle from the observed structure sizes.
class AccountingDriver final : public PassBundleDriver {
 public:
  AccountingDriver(FrameworkDriver& inner, CongestBoostResult& result)
      : inner_(inner), result_(result) {}

  void begin_phase(StructureForest& forest) override { inner_.begin_phase(forest); }

  void extend_active_path(StructureForest& forest) override {
    inner_.extend_active_path(forest);
  }

  void contract_and_augment(StructureForest& forest) override {
    inner_.contract_and_augment(forest);
    std::int64_t max_size = 1;
    for (StructureId s = 0; s < forest.num_structures(); ++s)
      if (!forest.structure(s).removed)
        max_size = std::max(max_size, forest.structure(s).size);
    result_.max_structure_size = std::max(result_.max_structure_size, max_size);
    result_.process_rounds += 2 * max_size + 2;
  }

  [[nodiscard]] bool exhaustive() const override { return inner_.exhaustive(); }

 private:
  FrameworkDriver& inner_;
  CongestBoostResult& result_;
};

}  // namespace

CongestBoostResult congest_boost_matching(const Graph& g, const CoreConfig& cfg) {
  CongestBoostResult result;
  CongestMatchingOracle oracle(cfg.seed);

  result.boost.matching = framework_initial_matching(g, oracle, cfg);
  const std::int64_t initial_calls = oracle.calls();
  result.boost.initial_oracle_calls = initial_calls;

  FrameworkDriver inner(g, oracle, cfg);
  AccountingDriver driver(inner, result);
  PhaseEngine engine(g, cfg);
  result.boost.outcome = engine.run(result.boost.matching, driver);
  result.boost.stats = inner.stats();
  result.boost.total_oracle_calls = oracle.calls();
  result.oracle_rounds = oracle.rounds();
  return result;
}

}  // namespace bmf::congest
