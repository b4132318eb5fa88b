// Analyzer fixture (good twin): the documented publication sequence with
// its proof markers — snapshot pointer release-stored before the epoch
// counter.
#include <atomic>
#include <cstdint>
#include <memory>

namespace bmf {

struct Snapshot {};

struct Publisher {
  std::atomic<std::shared_ptr<const Snapshot>> latest_;
  std::atomic<std::int64_t> published_epoch_{0};

  void publish(std::shared_ptr<const Snapshot> snap, std::int64_t epoch) {
    // publication-order[1]
    latest_.store(std::move(snap), std::memory_order_release);
    // publication-order[2]
    published_epoch_.store(epoch, std::memory_order_release);
  }
};

}  // namespace bmf
