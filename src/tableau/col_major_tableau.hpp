#pragma once

/// \file col_major_tableau.hpp
/// Column-major tableau layout with whole-matrix transposition
/// (the Stim-style layout of paper Fig. 2b).
///
/// In column mode the storage holds the transposed tableau: one
/// contiguous bit-row per logical column, so gate updates are streaming
/// word operations over 2n-bit column arrays. Measurements need row
/// operations, so prepare_row_mode() transposes the whole matrix into a
/// row-major image (and prepare_column_mode() transposes back). That
/// global transpose is precisely the cost the paper's blocked layout
/// (Fig. 2d) is designed to avoid.
///
/// Stim proper packs 8×8-bit tiles inside words; this layout reaches the
/// same design point (column-major storage, whole-matrix transposition at
/// mode switches) with 64×64-bit tile transposes, the natural tile on
/// 64-bit words. Only the transpose's tile differs, so the per-switch
/// cost the paper's §4 compares against stays O(rows × live columns).
///
/// Gate rules come from clifford_gates.hpp; `apply_gate` hands a rule one
/// word of each column array it names at a time.

#include <cstdint>
#include <span>
#include <vector>

#include "bitvec/bit_matrix.hpp"
#include "tableau/clifford_gates.hpp"
#include "tableau/shape.hpp"

namespace symphase {

class ColMajorTableau {
 public:
  ColMajorTableau(std::size_t n, std::size_t phase_capacity = 1);

  const TableauShape& shape() const { return shape_; }
  std::size_t num_qubits() const { return shape_.n; }

  std::size_t phase_used() const { return phase_used_; }
  std::size_t phase_words_used() const { return words_for_bits(phase_used_); }
  std::size_t allocate_phase_column();

  void prepare_column_mode();
  void prepare_row_mode();

  // --- Column-mode operations ---------------------------------------
  /// Gate traversal (call it through apply_unitary): enters column mode,
  /// then hands `Rule` one word of each column array it names at a time.
  /// The scratch row's bit rides along harmlessly (it is cleared before
  /// every use).
  template <typename Rule>
  void apply_gate(std::size_t a, std::size_t b) {
    prepare_column_mode();
    Word* const lines[clifford::kLanes] = {col(x_col(a)), col(z_col(a)),
                                           col(x_col(b)), col(z_col(b)),
                                           col(phase_col(0))};
    for (std::size_t w = 0; w < col_words_; ++w) {
      clifford::step<Rule>([&](std::size_t k) { return lines[k][w]; },
                           [&](std::size_t k, Word v) { lines[k][w] = v; });
    }
  }
  void phase_xor_cols_where_z(std::size_t a,
                              std::span<const std::uint32_t> phase_cols);
  void phase_xor_cols_where_x(std::size_t a,
                              std::span<const std::uint32_t> phase_cols);

  // --- Row-mode operations -------------------------------------------
  bool x_bit(std::size_t row, std::size_t q) const;
  bool z_bit(std::size_t row, std::size_t q) const;
  /// Generator-row masks of qubit q's X (Z) column, in either mode (see
  /// RowMajorTableau).
  void x_column(std::size_t q, Word* out) const;
  void z_column(std::size_t q, Word* out) const;
  void row_mult(std::size_t dst, std::size_t src);
  void row_copy(std::size_t dst, std::size_t src);
  /// X/Z-only row_mult / row_copy (see RowMajorTableau).
  void row_mult_xz(std::size_t dst, std::size_t src);
  void row_copy_xz(std::size_t dst, std::size_t src);
  void row_set_plus_z(std::size_t row, std::size_t q);
  void row_clear(std::size_t row);
  std::vector<std::uint32_t> row_phase_support(std::size_t row) const;
  void row_phase_xor_bit(std::size_t row, std::size_t phase_col);
  bool row_phase_bit(std::size_t row, std::size_t phase_col) const;

 private:
  std::size_t x_col(std::size_t q) const { return q; }
  std::size_t z_col(std::size_t q) const { return shape_.z_col_base() + q; }
  std::size_t phase_col(std::size_t b) const {
    return shape_.phase_col_base() + b;
  }
  /// Columns that actually carry data (XZ bands + used phase prefix);
  /// the transpose is limited to this prefix.
  std::size_t live_cols() const {
    return shape_.phase_col_base() + round_up_pow2(phase_used_, kWordBits);
  }

  Word* col(std::size_t c) { return cols_.row(c); }
  const Word* col(std::size_t c) const { return cols_.row(c); }
  void column_bits(std::size_t c, Word* out) const;

  TableauShape shape_;
  std::size_t phase_used_ = 1;
  bool column_mode_ = true;
  std::size_t col_words_;  // words per column array (covers num_rows bits)
  BitMatrix cols_;  // column mode: num_cols x num_rows bits
  BitMatrix rows_;  // row mode: num_rows x num_cols bits
};

}  // namespace symphase
