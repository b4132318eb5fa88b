// Analyzer fixture (good twin): exercises every gated form ungated-fanout
// resolves — a direct gated_threads call, a variable assigned from it
// (across a line break), a local helper that returns it, and the literal 1 —
// plus a redeclaration of parallel_for_threads, which names the fan-out
// without calling it.
#include <cstdint>
#include <functional>
#include <vector>

#include "util/thread_pool.hpp"

namespace bmf {

void parallel_for_threads(int threads, std::int64_t n,
                          const std::function<void(std::int64_t)>& fn);

namespace {

constexpr std::int64_t kMinWork = 64;

int scale_gate(std::int64_t work, int threads) {
  return gated_threads(work, kMinWork, threads);
}

}  // namespace

void scale_all(int threads, std::vector<std::int64_t>& xs) {
  const auto n = static_cast<std::int64_t>(xs.size());
  parallel_for_threads(gated_threads(n, kMinWork, threads), n,
                       [&](std::int64_t i) { xs[static_cast<std::size_t>(i)] *= 2; });
  const int scale_threads =
      scale_gate(n, threads);
  parallel_for_threads(scale_threads, n,
                       [&](std::int64_t i) { xs[static_cast<std::size_t>(i)] += 1; });
  parallel_for_threads(1, n,
                       [&](std::int64_t i) { xs[static_cast<std::size_t>(i)] -= 1; });
}

}  // namespace bmf
