// Analyzer fixture (known-bad): unordered-iteration. Hash-iteration order
// flows straight into the committed edge list. Fixtures are analyzer inputs,
// not build inputs.
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace bmf {

std::vector<std::pair<int, int>> commit_pairs(
    const std::vector<std::pair<std::int64_t, std::pair<int, int>>>& arcs) {
  std::unordered_map<std::int64_t, std::pair<int, int>> witness;
  for (const auto& [key, wx] : arcs) witness.emplace(key, wx);
  std::vector<std::pair<int, int>> committed;
  for (const auto& [key, wx] : witness) {  // BAD: stdlib-dependent order
    (void)key;
    committed.push_back(wx);
  }
  return committed;
}

}  // namespace bmf
