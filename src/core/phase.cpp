#include "core/phase.hpp"

#include "util/assert.hpp"

namespace bmf {
namespace {

void accumulate(OpCounts& into, const OpCounts& from) {
  into.overtake_unvisited += from.overtake_unvisited;
  into.overtake_same += from.overtake_same;
  into.overtake_steal += from.overtake_steal;
  into.contracts += from.contracts;
  into.augments += from.augments;
  into.backtracks += from.backtracks;
}

}  // namespace

BoostOutcome PhaseEngine::run(Matching& m, PassBundleDriver& driver) const {
  BMF_REQUIRE(m.num_vertices() == g_.num_vertices(),
              "PhaseEngine::run: matching size mismatch");
  // Rejects NaN too: a NaN eps makes last_scale() NaN (the scale loop never
  // ends). An eps too small for l_max + 1 to fit an int wrapped l_max and
  // certified what Theorem B.4 does not.
  BMF_REQUIRE(CoreConfig::eps_supported(cfg_.eps),
              "PhaseEngine::run: eps must be in (0, 1] with ceil(3/eps) + 1 <= "
              "INT_MAX");
  BoostOutcome out;
  for (double h = CoreConfig::first_scale();; h /= 2.0) {
    ++out.scales;
    const std::int64_t hold_limit = cfg_.hold_limit(h);
    const std::int64_t bundle_cap = cfg_.pass_bundle_cap(h);
    const std::int64_t phase_cap = cfg_.phase_cap(h);
    std::int64_t idle_phases = 0;

    for (std::int64_t phase = 0; phase < phase_cap; ++phase) {
      StructureForest forest(g_, m, cfg_);
      forest.init_phase();
      driver.begin_phase(forest);

      bool quiesced = false;
      for (std::int64_t tau = 0; tau < bundle_cap; ++tau) {
        ++out.pass_bundles;
        forest.begin_pass_bundle(hold_limit);
        driver.extend_active_path(forest);
        driver.contract_and_augment(forest);
        forest.backtrack_stuck();
        if (cfg_.check_invariants) forest.check_invariants();
        if (forest.ops_this_bundle() == 0) {
          quiesced = true;
          break;
        }
      }
      ++out.phases;
      accumulate(out.ops, forest.totals());

      // Algorithm 1 lines 5-6: restore removed vertices (implicit — the next
      // phase rebuilds the forest) and augment along the recorded disjoint
      // paths.
      const auto& paths = forest.recorded_paths();
      for (const auto& p : paths) m.augment(p);
      out.augmenting_paths += static_cast<std::int64_t>(paths.size());

      if (paths.empty()) {
        if (!forest.hold_seen() && quiesced && driver.exhaustive()) {
          out.certified = true;
          return out;
        }
        if (++idle_phases >= cfg_.idle_phase_limit) break;
      } else {
        idle_phases = 0;
      }
    }
    if (h <= cfg_.last_scale()) break;
  }
  return out;
}

}  // namespace bmf
