// Analyzer fixture (good twin): the same reduction routed through the pool —
// per-slot partials combined in index order, thread count through the
// gated_threads size gate. Mentioning OpenMP in a comment (like this one)
// must not trip the rule; only a real `#pragma omp` line is a finding.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/thread_pool.hpp"

namespace bmf {
namespace {

constexpr std::int64_t kChunk = 1024;

}  // namespace

std::int64_t sum_all(int threads, const std::vector<std::int64_t>& xs) {
  const auto n = static_cast<std::int64_t>(xs.size());
  const std::int64_t chunks = (n + kChunk - 1) / kChunk;
  std::vector<std::int64_t> partials(static_cast<std::size_t>(chunks));
  const int sum_threads = gated_threads(chunks, 2, threads);
  parallel_for_threads(sum_threads, chunks, [&](std::int64_t c) {
    std::int64_t partial = 0;
    for (std::int64_t i = c * kChunk; i < std::min(n, (c + 1) * kChunk); ++i)
      partial += xs[static_cast<std::size_t>(i)];
    partials[static_cast<std::size_t>(c)] = partial;
  });
  std::int64_t total = 0;
  for (const std::int64_t partial : partials) total += partial;
  return total;
}

}  // namespace bmf
