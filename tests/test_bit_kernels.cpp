// Reference suite for the BitMatrix word-scanning kernels (scalar loops over
// 64-bit words): every probe, and its words_scanned charge, against a naive
// bit-by-bit reference at widths crossing the word boundary; plus the
// tail-word hygiene and BMF_REQUIRE regressions.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/bit_matrix.hpp"
#include "util/rng.hpp"

namespace bmf {
namespace {

// Widths straddling the 64-bit word boundary at several row lengths.
const std::vector<std::int64_t> kWidths = {1,   5,   63,  64,  65,  127, 128,
                                           129, 191, 192, 193, 255, 256, 257,
                                           300, 447, 448, 449, 511, 512, 700};

BitVec random_vec(std::int64_t n, double density, Rng& rng) {
  BitVec v(n);
  for (std::int64_t i = 0; i < n; ++i)
    if (rng.next_bool(density)) v.set(i);
  return v;
}

BitMatrix random_matrix(std::int64_t rows, std::int64_t cols, double density,
                        Rng& rng) {
  BitMatrix m(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c)
      if (rng.next_bool(density)) m.set(r, c);
  return m;
}

std::int64_t naive_first_common(const BitMatrix& m, std::int64_t r,
                                const BitVec& mask) {
  for (std::int64_t c = 0; c < m.cols(); ++c)
    if (m.get(r, c) && mask.get(c)) return c;
  return -1;
}

// The documented accounting: a hit at word w charges w + 1 words, a miss
// charges the whole row.
std::int64_t naive_words_scanned(const BitMatrix& m, std::int64_t r,
                                 const BitVec& mask) {
  const std::int64_t hit = naive_first_common(m, r, mask);
  return hit >= 0 ? hit / 64 + 1 : m.words_per_row();
}

std::int64_t naive_intersect_count(const BitMatrix& m, std::int64_t r,
                                   const BitVec& mask) {
  std::int64_t total = 0;
  for (std::int64_t c = 0; c < m.cols(); ++c)
    if (m.get(r, c) && mask.get(c)) ++total;
  return total;
}

TEST(BitKernelDifferential, FirstCommonInRowMatchesScalarAndReference) {
  Rng rng(20250809);
  for (const std::int64_t n : kWidths) {
    const BitMatrix m = random_matrix(std::min<std::int64_t>(n, 40), n,
                                      /*density=*/0.03, rng);
    // Sparse, dense, empty, and full masks: hit-early, hit-late, and miss
    // paths all get traffic at every width.
    for (const double density : {0.0, 0.02, 0.5, 1.0}) {
      const BitVec mask = random_vec(n, density, rng);
      for (std::int64_t r = 0; r < m.rows(); ++r) {
        std::int64_t words = -1;
        const std::int64_t hit = m.first_common_in_row(r, mask, &words);
        EXPECT_EQ(hit, naive_first_common(m, r, mask)) << "n=" << n << " r=" << r;
        EXPECT_EQ(words, naive_words_scanned(m, r, mask))
            << "n=" << n << " r=" << r;
      }
    }
  }
}

TEST(BitKernelDifferential, MultiplyMatchesScalarAndReference) {
  Rng rng(77);
  for (const std::int64_t n : kWidths) {
    const BitMatrix m = random_matrix(n, n, /*density=*/0.02, rng);
    for (const double density : {0.0, 0.05, 0.6}) {
      const BitVec v = random_vec(n, density, rng);
      BitVec out(n);
      std::int64_t words = -1;
      m.multiply(v, out, &words);
      std::int64_t naive_words = 0;
      for (std::int64_t r = 0; r < n; ++r) {
        EXPECT_EQ(out.get(r), naive_first_common(m, r, v) >= 0)
            << "n=" << n << " r=" << r;
        naive_words += naive_words_scanned(m, r, v);
      }
      EXPECT_EQ(words, naive_words) << "n=" << n;
      EXPECT_TRUE(out.tail_clear());
    }
  }
}

TEST(BitKernelDifferential, RowIntersectCountMatchesScalarAndReference) {
  Rng rng(9);
  for (const std::int64_t n : kWidths) {
    const BitMatrix m = random_matrix(std::min<std::int64_t>(n, 24), n,
                                      /*density=*/0.2, rng);
    for (const double density : {0.0, 0.3, 1.0}) {
      const BitVec mask = random_vec(n, density, rng);
      for (std::int64_t r = 0; r < m.rows(); ++r)
        EXPECT_EQ(m.row_intersect_count(r, mask),
                  naive_intersect_count(m, r, mask))
            << "n=" << n << " r=" << r;
    }
  }
}

TEST(BitKernelTailWord, SetWordMasksBitsBeyondSize) {
  BitVec v(70);  // tail word holds bits 64..69
  v.set_word(1, ~0ULL);
  EXPECT_TRUE(v.tail_clear());
  EXPECT_EQ(v.popcount(), 6);
  for (std::int64_t i = 64; i < 70; ++i) EXPECT_TRUE(v.get(i));
  v.set_word(0, ~0ULL);  // full words are stored verbatim
  EXPECT_EQ(v.word(0), ~0ULL);
  EXPECT_EQ(v.popcount(), 70);
}

TEST(BitKernelTailWord, WordMultipleSizesHaveNoTailMask) {
  BitVec v(128);
  v.set_word(1, ~0ULL);
  EXPECT_EQ(v.word(1), ~0ULL);
  EXPECT_TRUE(v.tail_clear());
  EXPECT_EQ(v.popcount(), 64);
}

TEST(BitKernelTailWord, KernelsAreExactAtNonWordMultipleSizes) {
  // Sizes != 0 (mod 64): first_set / first_common / popcount near the top
  // bit, where a stray tail bit would surface as a phantom hit.
  for (const std::int64_t n : {65, 70, 127, 129, 193}) {
    BitVec a(n);
    BitVec b(n);
    a.set(n - 1);
    b.set(n - 1);
    EXPECT_EQ(a.first_set(), n - 1) << "n=" << n;
    EXPECT_EQ(a.first_common(b), n - 1) << "n=" << n;
    EXPECT_EQ(a.popcount(), 1) << "n=" << n;
    a.set(n - 1, false);
    EXPECT_EQ(a.first_set(), -1) << "n=" << n;
    EXPECT_EQ(a.first_common(b), -1) << "n=" << n;
  }
}

TEST(BitKernelTailWord, MultiplyOutputTailStaysClear) {
  // rows = 70: the out vector's tail word covers rows 64..69 only; the block
  // writer must not leak bits for the nonexistent rows 70..127.
  Rng rng(5);
  const BitMatrix m = random_matrix(70, 70, /*density=*/1.0, rng);
  const BitVec v = random_vec(70, 1.0, rng);
  BitVec out(70);
  m.multiply(v, out);
  EXPECT_TRUE(out.tail_clear());
  EXPECT_EQ(out.popcount(), 70);
}

TEST(BitKernelRequire, MismatchedSizesThrowInEveryBuild) {
  const BitVec a(64);
  const BitVec b(65);
  EXPECT_THROW((void)a.first_common(b), std::invalid_argument);

  const BitMatrix m(8, 64);
  const BitVec mask(65);
  EXPECT_THROW((void)m.first_common_in_row(0, mask), std::invalid_argument);
  EXPECT_THROW((void)m.row_intersect_count(0, mask), std::invalid_argument);
  BitVec out(8);
  EXPECT_THROW(m.multiply(mask, out), std::invalid_argument);
}

}  // namespace
}  // namespace bmf
