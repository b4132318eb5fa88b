#include "dynamic/dynamic_matcher.hpp"

#include "util/assert.hpp"

namespace bmf {

DynamicMatcher::DynamicMatcher(Vertex n, WeakOracle& oracle,
                               const DynamicMatcherConfig& cfg)
    : oracle_(oracle), store_(n, oracle), core_(store_, [&] {
        validate_core_config(cfg, /*shards=*/1, "DynamicMatcher");
        return resolve_core_config(cfg);
      }()) {}

Problem1Instance::Problem1Instance(Vertex n, WeakOracle& oracle, std::int64_t q,
                                   double lambda, double delta, double alpha)
    : store_(n, oracle),
      q_(q),
      delta_(delta),
      chunk_size_(std::max<std::int64_t>(
          1, static_cast<std::int64_t>(alpha * static_cast<double>(n)))) {
  BMF_REQUIRE(q >= 1, "Problem1Instance: q must be >= 1");
  BMF_REQUIRE(lambda > 0 && lambda <= 1 && delta > 0 && delta < 1 && alpha > 0,
              "Problem1Instance: parameters out of range");
  BMF_REQUIRE(oracle.lambda() >= lambda,
              "Problem1Instance: oracle lambda too weak for this instance");
}

void Problem1Instance::apply_chunk(std::span<const EdgeUpdate> chunk) {
  BMF_REQUIRE(static_cast<std::int64_t>(chunk.size()) == chunk_size_,
              "Problem1Instance: chunk must contain exactly alpha*n updates");
  for (const EdgeUpdate& up : chunk)
    BMF_REQUIRE(valid_update(up, store_.num_vertices()),
                "Problem1Instance: invalid edge update");
  // toggle feeds the oracle only when the update changed edge presence.
  for (const EdgeUpdate& up : chunk)
    if (!up.empty()) store_.toggle(up);
  queries_left_ = q_;
}

WeakQueryResult Problem1Instance::query(std::span<const Vertex> s) {
  BMF_REQUIRE(queries_left_ > 0, "Problem1Instance: query budget exhausted");
  --queries_left_;
  return store_.oracle().query(s, delta_);
}

}  // namespace bmf
