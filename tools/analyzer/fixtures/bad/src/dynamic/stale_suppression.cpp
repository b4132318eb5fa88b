// Analyzer fixture (known-bad): stale-suppression. Four rotten
// suppressions — an allow() citing a rule the analyzer never defined, an
// allow() missing the mandatory reason tail (so it suppresses nothing while
// looking like it does), an allow() under the retired determinism-lint
// prefix, and a clang-tidy marker that names no check and so would swallow
// every diagnostic on its line. Fixture files are analyzer inputs, not
// build inputs.

namespace bmf {

inline int identity(int x) {
  // bmf-analyzer: allow(hash-iteration) -- rule was renamed long ago
  int a = x;
  // bmf-analyzer: allow(lock-order)
  int b = a;
  // determinism-lint: allow(bare-thread) -- written for the retired tool
  int c = b;  // NOLINT
  return c;
}

}  // namespace bmf
