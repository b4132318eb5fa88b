#pragma once

/// Former names of the one dynamic engine and its config, kept only because
/// perfbench/ compiles against them; they go with the next change to
/// perfbench/, as `threads`, `WeakOracle::on_batch` and
/// `ReplayEngine::overlap_stats()` do. New code uses `DynamicMatcher` and
/// `DynamicMatcherConfig` (dynamic_matcher.hpp, replay_core.hpp).

#include "dynamic/dynamic_matcher.hpp"
#include "dynamic/replay_core.hpp"

namespace bmf {

using DynamicCoreConfig = DynamicMatcherConfig;
using ShardedMatcherConfig = DynamicMatcherConfig;
using ShardedDynamicMatcher = DynamicMatcher;

}  // namespace bmf
