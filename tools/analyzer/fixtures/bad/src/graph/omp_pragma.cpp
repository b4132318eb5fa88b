// Analyzer fixture (known-bad): raw-openmp. An OpenMP pragma is a second
// scheduler next to the pool — its thread count and reduction order are
// outside the gated_threads discipline, so thread-count bit-identity is no
// longer governed in one place.
#include <cstdint>
#include <vector>

namespace bmf {

std::int64_t sum_all(const std::vector<std::int64_t>& xs) {
  std::int64_t total = 0;
#pragma omp parallel for reduction(+ : total)  // BAD: raw OpenMP
  for (std::size_t i = 0; i < xs.size(); ++i) total += xs[i];
  return total;
}

}  // namespace bmf
