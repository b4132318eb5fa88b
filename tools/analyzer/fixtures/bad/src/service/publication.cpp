// Analyzer fixture (known-bad): publication-order. Publishes the epoch
// counter before the snapshot pointer and carries no proof markers — a
// reader acquiring the new epoch could re-fetch the stale snapshot.
#include <atomic>
#include <cstdint>
#include <memory>

namespace bmf {

struct Snapshot {};

struct Publisher {
  std::atomic<std::shared_ptr<const Snapshot>> latest_;
  std::atomic<std::int64_t> published_epoch_{0};

  void publish(std::shared_ptr<const Snapshot> snap, std::int64_t epoch) {
    published_epoch_.store(epoch, std::memory_order_release);  // BAD: first
    latest_.store(std::move(snap), std::memory_order_release);
  }
};

}  // namespace bmf
