#pragma once

/// \file dense_row_ops.hpp
/// Row operations over a dense row-major tableau image.
///
/// RowMajorTableau stores its tableau this way permanently; ColMajorTableau
/// materializes the same image in row mode. Both delegate their row-mode
/// operations here so the A-G semantics live in exactly one place.

#include <cstdint>
#include <vector>

#include "bitvec/bit_matrix.hpp"
#include "tableau/row_kernels.hpp"
#include "tableau/shape.hpp"

namespace symphase::dense_rows {

/// row(dst) := row(dst) · row(src): XOR of X/Z bands, XOR of the used
/// phase prefix, and the constant-column adjustment from the mod-4
/// i-exponent of the Pauli product (which must come out even).
inline void row_mult(BitMatrix& bits, const TableauShape& shape,
                     std::size_t phase_words_used, std::size_t dst,
                     std::size_t src) {
  SYMPHASE_ASSERT(dst != src);
  Word* d = bits.row(dst);
  const Word* s = bits.row(src);
  const std::size_t wx = shape.xz_words();
  PhaseTally tally;
  rowsum_xor_accumulate(d, d + wx, s, s + wx, wx, tally);
  const int exponent = tally.i_exponent_mod4();
  SYMPHASE_ASSERT(exponent % 2 == 0);

  const std::size_t pw = shape.phase_col_base() / kWordBits;
  wide::xor_words(d + pw, s + pw, phase_words_used);
  if (exponent == 2) {
    d[pw] ^= Word{1};
  }
}

inline void row_copy(BitMatrix& bits, std::size_t dst, std::size_t src) {
  if (dst == src) {
    return;
  }
  wide::copy_words(bits.row(dst), bits.row(src), bits.words_per_row());
}

/// row(dst) := row(dst) · row(src) on the X/Z bands only; the phase band
/// of dst is left as it was.
inline void row_mult_xz(BitMatrix& bits, const TableauShape& shape,
                        std::size_t dst, std::size_t src) {
  SYMPHASE_ASSERT(dst != src);
  wide::xor_words(bits.row(dst), bits.row(src), 2 * shape.xz_words());
}

/// Copies the X/Z bands of row(src) into row(dst); the phase band of dst
/// is left as it was.
inline void row_copy_xz(BitMatrix& bits, const TableauShape& shape,
                        std::size_t dst, std::size_t src) {
  wide::copy_words(bits.row(dst), bits.row(src), 2 * shape.xz_words());
}

inline void row_set_plus_z(BitMatrix& bits, const TableauShape& shape,
                           std::size_t row, std::size_t q) {
  bits.clear_row(row);
  bits.set(row, shape.z_col_base() + q, true);
}

/// Sorted phase columns set in `row`.
inline std::vector<std::uint32_t> row_phase_support(const BitMatrix& bits,
                                                    const TableauShape& shape,
                                                    std::size_t phase_used,
                                                    std::size_t row) {
  std::vector<std::uint32_t> support;
  for_each_set_bit(bits.row(row) + shape.phase_col_base() / kWordBits, 0,
                   phase_used, [&](std::size_t c) {
                     support.push_back(static_cast<std::uint32_t>(c));
                   });
  return support;
}

/// Bit `col` of the 2n generator rows as a row mask (the layouts'
/// x_column / z_column).
inline void column_bits(const BitMatrix& bits, const TableauShape& shape,
                        std::size_t col, Word* out) {
  gather_bit_column(bits.row(0) + word_index(col), bits.words_per_row(),
                    bit_offset(col), 2 * shape.n, out);
}

}  // namespace symphase::dense_rows
