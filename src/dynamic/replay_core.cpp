#include "dynamic/replay_core.hpp"

#include <stdexcept>
#include <string>

namespace bmf {

void validate_core_config(const DynamicMatcherConfig& cfg, const char* who) {
  const auto fail = [who](const char* what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (!(cfg.eps > 0 && cfg.eps <= 1)) fail("eps out of range (need 0 < eps <= 1)");
  if (cfg.threads < 0) fail("threads must be >= 0 (0 = hardware concurrency)");
  if (cfg.rebuild_every < 0) fail("rebuild_every must be >= 0 (0 = adaptive)");
  if (cfg.shards < 1) fail("shards must be >= 1");
}

DynamicMatcherConfig resolve_core_config(DynamicMatcherConfig cfg) {
  // The rebuild engine runs at eps/2 on the shared seed. `threads` is not
  // forwarded: no dynamic-engine code reads it (see DynamicMatcherConfig).
  cfg.sim.core.eps = cfg.eps / 2.0;
  cfg.sim.core.seed = cfg.seed;
  return cfg;
}

}  // namespace bmf
