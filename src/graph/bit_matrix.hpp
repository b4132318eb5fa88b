#pragma once

/// Boolean matrices and vectors packed 64 bits per word.
///
/// BitMatrix backs two substrates: the adjacency-matrix representation the
/// dynamic framework assumes (Section 6.1: "the algorithm takes the adjacency
/// matrix of G as input") and the dynamic OMv engine of Section 7.4.
///
/// Tail-word invariant: bits >= n_ (BitVec) / >= cols_ (BitMatrix rows) in the
/// last word of a row are always zero. Every mutation site enforces it —
/// `set` cannot address them and `set_word` masks them — so the word-level
/// scan kernels (popcount, first_set, first_common, and the row probes below)
/// may consume whole words without per-bit range checks.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace bmf {

class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::int64_t n);

  void set(std::int64_t i, bool value = true);
  [[nodiscard]] bool get(std::int64_t i) const;
  void clear();

  [[nodiscard]] std::int64_t size() const { return n_; }
  [[nodiscard]] std::int64_t popcount() const;

  /// Index of the lowest set bit, or -1 if empty.
  [[nodiscard]] std::int64_t first_set() const;

  /// Index of the lowest bit set in both this and other, or -1.
  [[nodiscard]] std::int64_t first_common(const BitVec& other) const;

  [[nodiscard]] std::int64_t num_words() const {
    return static_cast<std::int64_t>(words_.size());
  }
  [[nodiscard]] std::uint64_t word(std::int64_t w) const {
    return words_[static_cast<std::size_t>(w)];
  }

  /// Bulk 64-bit store; bits >= n_ in the last word are masked off, so the
  /// tail-word invariant holds no matter what callers write.
  void set_word(std::int64_t w, std::uint64_t bits) {
    words_[static_cast<std::size_t>(w)] = bits & word_mask(w);
  }

  /// Contiguous word storage (for the word-scanning kernels).
  [[nodiscard]] const std::uint64_t* data() const { return words_.data(); }

  /// Tail-word invariant check (debug assertions and tests): no bit >= n_
  /// set in the last word.
  [[nodiscard]] bool tail_clear() const {
    return words_.empty() || (words_.back() & ~word_mask(num_words() - 1)) == 0;
  }

 private:
  std::int64_t n_ = 0;
  std::vector<std::uint64_t> words_;

  /// All-ones for full words, the partial mask for the tail word.
  [[nodiscard]] std::uint64_t word_mask(std::int64_t w) const {
    const bool tail = w == num_words() - 1 && (n_ & 63) != 0;
    return tail ? (1ULL << (n_ & 63)) - 1 : ~0ULL;
  }
};

class BitMatrix {
 public:
  BitMatrix() = default;
  /// rows x cols Boolean matrix, initially all-zero.
  BitMatrix(std::int64_t rows, std::int64_t cols);

  void set(std::int64_t r, std::int64_t c, bool value = true);
  [[nodiscard]] bool get(std::int64_t r, std::int64_t c) const;

  [[nodiscard]] std::int64_t rows() const { return rows_; }
  [[nodiscard]] std::int64_t cols() const { return cols_; }

  /// Boolean matrix-vector product over the (OR, AND) semiring:
  /// out[i] = OR_j (M[i][j] AND v[j]).  Worst case O(rows * cols / 64), but
  /// each row stops at its first set AND-word; when `words_scanned` is
  /// non-null it receives the number of 64-bit words actually read (the
  /// honest cost for words-touched accounting — callers must not charge the
  /// full rows * words_per_row()).
  void multiply(const BitVec& v, BitVec& out,
                std::int64_t* words_scanned = nullptr) const;

  /// First column c in row r with M[r][c] AND mask[c], or -1. The scan
  /// early-exits at the first set word; when `words_scanned` is non-null it
  /// receives the number of row words actually read (hit at word w => w + 1,
  /// miss => words_per_row()), which is what words-touched counters must
  /// charge — not the full row.
  [[nodiscard]] std::int64_t first_common_in_row(
      std::int64_t r, const BitVec& mask,
      std::int64_t* words_scanned = nullptr) const;

  /// Number of columns c with M[r][c] AND mask[c]. Always scans the whole
  /// row (no early exit), so words-touched callers charge words_per_row().
  [[nodiscard]] std::int64_t row_intersect_count(std::int64_t r,
                                                 const BitVec& mask) const;

  /// Raw 64-bit word w of row r (bit c-lo set iff M[r][64w + c-lo]).
  [[nodiscard]] std::uint64_t row_word(std::int64_t r, std::int64_t w) const {
    return words_[idx(r, w)];
  }
  [[nodiscard]] std::int64_t words_per_row() const { return words_per_row_; }

  /// Loads the adjacency matrix of g (symmetric n x n).
  static BitMatrix from_graph(const Graph& g);

 private:
  std::int64_t rows_ = 0, cols_ = 0, words_per_row_ = 0;
  std::vector<std::uint64_t> words_;

  [[nodiscard]] std::size_t idx(std::int64_t r, std::int64_t w) const {
    return static_cast<std::size_t>(r * words_per_row_ + w);
  }
};

}  // namespace bmf
