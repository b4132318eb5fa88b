// Lint fixture (good twin): the concurrent work goes through the pool, which
// joins before it returns; each index writes its own slot, and the slots
// reach `out` in index order.
#include <cstdint>
#include <vector>

#include "util/thread_pool.hpp"

namespace bmf {

void rebuild_async(int threads, std::vector<int>& out) {
  std::vector<int> slots(2);
  parallel_for_threads(gated_threads(2, 2, threads), 2, [&](std::int64_t i) {
    slots[static_cast<std::size_t>(i)] = static_cast<int>(i);
  });
  out.insert(out.end(), slots.begin(), slots.end());
}

}  // namespace bmf
