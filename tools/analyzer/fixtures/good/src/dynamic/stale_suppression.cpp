// Analyzer fixture (good twin): every suppression cites a rule the analyzer
// defines under its one prefix and carries a reason, and the clang-tidy
// marker names its check. Fixture files are analyzer inputs, not build
// inputs.

namespace bmf {

inline int identity(int x) {
  // bmf-analyzer: allow(bare-thread) -- documents a reviewed exception
  int a = x;
  // bmf-analyzer: allow(lock-order) -- nesting reviewed; edge in manifest
  int b = a;
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- fixture demonstrates the form
  int c = b;
  return c;
}

}  // namespace bmf
