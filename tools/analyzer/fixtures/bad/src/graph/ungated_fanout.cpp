// Analyzer fixture (known-bad): ungated-fanout. The fan-out takes the raw
// config thread count — tiny inputs pay the pool round-trip, and the gate
// discipline is broken.
#include <cstdint>
#include <vector>

#include "util/thread_pool.hpp"

namespace bmf {

void scale_all(int threads, std::vector<std::int64_t>& xs) {
  parallel_for_threads(threads,  // BAD: ungated
                       static_cast<std::int64_t>(xs.size()),
                       [&](std::int64_t i) { xs[static_cast<std::size_t>(i)] *= 2; });
}

}  // namespace bmf
