// Analyzer fixture (good twin): the concurrent work goes through the pool,
// which joins before it returns; each index writes its own slot, and the
// slots reach `out` in index order. The one bare thread left carries a
// documented suppression: allow(<rule>) with its mandatory reason silences
// exactly one rule on one line.
#include <cstdint>
#include <thread>
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

void measure_spawn_latency() {
  // bmf-analyzer: allow(bare-thread) -- measures raw spawn cost; joined
  std::thread probe([] {});
  probe.join();
}

}  // namespace bmf
