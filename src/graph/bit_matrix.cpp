#include "graph/bit_matrix.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace bmf {

namespace {

// Index of the first word w in [0, words) with (a[w] & b[w]) != 0, or -1.
// Every words_scanned figure derives from this index the same way: a hit at
// w charges w + 1 words, a miss charges the whole row.
std::int64_t first_and_word(const std::uint64_t* a, const std::uint64_t* b,
                            std::int64_t words) {
  for (std::int64_t w = 0; w < words; ++w)
    if ((a[w] & b[w]) != 0) return w;
  return -1;
}

std::int64_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                          std::int64_t words) {
  std::int64_t total = 0;
  for (std::int64_t w = 0; w < words; ++w) total += std::popcount(a[w] & b[w]);
  return total;
}

}  // namespace

BitVec::BitVec(std::int64_t n)
    : n_(n), words_(static_cast<std::size_t>((n + 63) / 64), 0) {
  BMF_REQUIRE(n >= 0, "BitVec: negative size");
}

void BitVec::set(std::int64_t i, bool value) {
  BMF_ASSERT(i >= 0 && i < n_);
  const auto w = static_cast<std::size_t>(i >> 6);
  const std::uint64_t bit = 1ULL << (i & 63);
  if (value)
    words_[w] |= bit;
  else
    words_[w] &= ~bit;
}

bool BitVec::get(std::int64_t i) const {
  BMF_ASSERT(i >= 0 && i < n_);
  return (words_[static_cast<std::size_t>(i >> 6)] >> (i & 63)) & 1ULL;
}

void BitVec::clear() { std::fill(words_.begin(), words_.end(), 0); }

std::int64_t BitVec::popcount() const {
  BMF_ASSERT(tail_clear());
  std::int64_t total = 0;
  for (auto w : words_) total += std::popcount(w);
  return total;
}

std::int64_t BitVec::first_set() const {
  BMF_ASSERT(tail_clear());
  for (std::size_t w = 0; w < words_.size(); ++w)
    if (words_[w] != 0)
      return static_cast<std::int64_t>(w) * 64 + std::countr_zero(words_[w]);
  return -1;
}

std::int64_t BitVec::first_common(const BitVec& other) const {
  BMF_REQUIRE(n_ == other.n_, "BitVec::first_common: size mismatch");
  BMF_ASSERT(tail_clear() && other.tail_clear());
  const std::int64_t w = first_and_word(data(), other.data(), num_words());
  if (w < 0) return -1;
  return w * 64 + std::countr_zero(word(w) & other.word(w));
}

BitMatrix::BitMatrix(std::int64_t rows, std::int64_t cols)
    : rows_(rows),
      cols_(cols),
      words_per_row_((cols + 63) / 64),
      words_(static_cast<std::size_t>(rows * words_per_row_), 0) {
  BMF_REQUIRE(rows >= 0 && cols >= 0, "BitMatrix: negative dimensions");
}

void BitMatrix::set(std::int64_t r, std::int64_t c, bool value) {
  BMF_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  const std::uint64_t bit = 1ULL << (c & 63);
  if (value)
    words_[idx(r, c >> 6)] |= bit;
  else
    words_[idx(r, c >> 6)] &= ~bit;
}

bool BitMatrix::get(std::int64_t r, std::int64_t c) const {
  BMF_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  return (words_[idx(r, c >> 6)] >> (c & 63)) & 1ULL;
}

void BitMatrix::multiply(const BitVec& v, BitVec& out,
                         std::int64_t* words_scanned) const {
  BMF_REQUIRE(v.size() == cols_, "BitMatrix::multiply: vector size mismatch");
  BMF_REQUIRE(out.size() == rows_, "BitMatrix::multiply: output size mismatch");
  BMF_ASSERT(v.tail_clear());
  // Each 64-row block fills one full word of `out` (rows [64b, 64b+64)).
  const std::int64_t out_words = (rows_ + 63) / 64;
  std::int64_t scanned = 0;
  for (std::int64_t b = 0; b < out_words; ++b) {
    std::uint64_t word = 0;
    const std::int64_t row_end = std::min<std::int64_t>(rows_, (b + 1) * 64);
    for (std::int64_t r = b * 64; r < row_end; ++r) {
      const std::int64_t hit =
          first_and_word(words_.data() + idx(r, 0), v.data(), words_per_row_);
      scanned += hit < 0 ? words_per_row_ : hit + 1;
      if (hit >= 0) word |= 1ULL << (r & 63);
    }
    out.set_word(b, word);
  }
  if (words_scanned != nullptr) *words_scanned = scanned;
}

std::int64_t BitMatrix::first_common_in_row(std::int64_t r, const BitVec& mask,
                                            std::int64_t* words_scanned) const {
  BMF_REQUIRE(mask.size() == cols_,
              "BitMatrix::first_common_in_row: mask size mismatch");
  BMF_ASSERT(r >= 0 && r < rows_);
  BMF_ASSERT(mask.tail_clear());
  const std::int64_t w =
      first_and_word(words_.data() + idx(r, 0), mask.data(), words_per_row_);
  if (w < 0) {
    if (words_scanned != nullptr) *words_scanned = words_per_row_;
    return -1;
  }
  if (words_scanned != nullptr) *words_scanned = w + 1;
  return w * 64 + std::countr_zero(words_[idx(r, w)] & mask.word(w));
}

std::int64_t BitMatrix::row_intersect_count(std::int64_t r,
                                            const BitVec& mask) const {
  BMF_REQUIRE(mask.size() == cols_,
              "BitMatrix::row_intersect_count: mask size mismatch");
  BMF_ASSERT(r >= 0 && r < rows_);
  BMF_ASSERT(mask.tail_clear());
  return and_popcount(words_.data() + idx(r, 0), mask.data(), words_per_row_);
}

BitMatrix BitMatrix::from_graph(const Graph& g) {
  BitMatrix m(g.num_vertices(), g.num_vertices());
  for (const Edge& e : g.edges()) {
    m.set(e.u, e.v, true);
    m.set(e.v, e.u, true);
  }
  return m;
}

}  // namespace bmf
