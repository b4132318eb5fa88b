// Analyzer fixture (known-bad): single-writer-ledger. A CommStats counter
// is mutated inside a parallel_for_threads lambda — once directly, once
// through a helper — so the count depends on thread interleaving (or races
// outright). Fixtures are analyzer inputs, not build inputs.
#include <cstdint>
#include <functional>

int gated_threads(std::int64_t work, std::int64_t min_work_per_thread,
                  int threads);
void parallel_for_threads(int threads, std::int64_t n,
                          const std::function<void(std::int64_t)>& fn);

class ShardRouter {
 public:
  void route(std::int64_t ops, int threads) {
    const int route_threads = gated_threads(ops, 1, threads);
    parallel_for_threads(route_threads, ops, [&](std::int64_t i) {
      batch_bytes_ += 16;  // BAD: worker mutates the coordinator ledger
      charge_round(i);
    });
  }

 private:
  void charge_round(std::int64_t) { batch_rounds_ += 1; }

  std::int64_t batch_bytes_ = 0;
  std::int64_t batch_rounds_ = 0;
};
