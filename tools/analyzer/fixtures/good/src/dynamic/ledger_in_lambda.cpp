// Analyzer fixture (known-good): the coordinator-fold twin of
// bad/src/dynamic/ledger_in_lambda.cpp. Workers accumulate into private
// per-thread slots; the coordinator folds the slots into the ledger after
// the join — PR 8's discipline. Fixtures are analyzer inputs, not build
// inputs.
#include <cstdint>
#include <functional>
#include <vector>

int gated_threads(std::int64_t work, std::int64_t min_work_per_thread,
                  int threads);
void parallel_for_threads(int threads, std::int64_t n,
                          const std::function<void(std::int64_t)>& fn);

class ShardRouter {
 public:
  void route(std::int64_t ops, int threads) {
    std::vector<std::int64_t> slots(static_cast<std::size_t>(ops), 0);
    const int route_threads = gated_threads(ops, 1, threads);
    parallel_for_threads(route_threads, ops, [&](std::int64_t i) {
      slots[static_cast<std::size_t>(i)] += 16;  // private slot per item
    });
    for (const std::int64_t s : slots) batch_bytes_ += s;  // coordinator fold
    batch_rounds_ += 1;
  }

 private:
  std::int64_t batch_bytes_ = 0;
  std::int64_t batch_rounds_ = 0;
};
