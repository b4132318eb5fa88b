// Analyzer fixture (known-bad): bare-thread. A raw std::thread in engine
// code — unjoined on an exception path, invisible to the pool's nesting
// rules.
#include <thread>
#include <vector>

namespace bmf {

void rebuild_async(std::vector<int>& out) {
  std::thread worker([&] { out.push_back(1); });  // BAD: bare thread
  out.push_back(0);
  worker.join();
}

}  // namespace bmf
