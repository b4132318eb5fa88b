// Analyzer fixture (good twin): the unordered map is only a dedup index;
// its keys are collected and sorted before anything reaches committed state.
#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace bmf {

std::vector<std::pair<int, int>> commit_pairs(
    const std::vector<std::pair<std::int64_t, std::pair<int, int>>>& arcs) {
  std::unordered_map<std::int64_t, std::pair<int, int>> witness;
  for (const auto& [key, wx] : arcs) witness.emplace(key, wx);
  std::vector<std::int64_t> keys;
  keys.reserve(witness.size());
  for (const auto& [key, wx] : witness) {
    (void)wx;
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::pair<int, int>> committed;
  for (const std::int64_t key : keys) committed.push_back(witness.at(key));
  return committed;
}

}  // namespace bmf
