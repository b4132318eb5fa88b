// Analyzer fixture (known-bad): raw-randomness. Three unseeded entropy
// sources in one file.
#include <cstdlib>
#include <ctime>
#include <random>

namespace bmf {

int pick_sample(int n) {
  std::random_device rd;  // BAD: nondeterministic seed
  std::srand(static_cast<unsigned>(time(nullptr)));  // BAD: wall clock + srand
  return (static_cast<int>(rd()) + rand()) % n;  // BAD: rand()
}

}  // namespace bmf
