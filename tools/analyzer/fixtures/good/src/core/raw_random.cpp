// Analyzer fixture (good twin): all randomness flows from the seeded Rng,
// split serially before any parallel use.
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace bmf {

int pick_sample(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Rng> streams;
  for (int s = 0; s < 4; ++s) streams.push_back(rng.split());
  return static_cast<int>(streams[0].next() % static_cast<std::uint64_t>(n));
}

}  // namespace bmf
