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
/// Stim proper packs 8×8-bit tiles inside words; we realize the same
/// design point (column-major + full transposition at mode switches)
/// with 64×64-bit tile transposes, which is the natural choice on
/// 64-bit words. DESIGN.md documents the substitution.

#include <cstdint>
#include <span>
#include <vector>

#include "bitvec/bit_matrix.hpp"
#include "tableau/shape.hpp"

namespace symphase {

class ColMajorTableau {
 public:
  ColMajorTableau(std::size_t n, std::size_t phase_capacity = 1);

  static constexpr const char* layout_name() { return "col_major"; }

  const TableauShape& shape() const { return shape_; }
  std::size_t num_qubits() const { return shape_.n; }

  std::size_t phase_used() const { return phase_used_; }
  std::size_t phase_words_used() const { return words_for_bits(phase_used_); }
  std::size_t allocate_phase_column();

  void prepare_column_mode();
  void prepare_row_mode();
  bool in_column_mode() const { return column_mode_; }

  // --- Column-mode operations ---------------------------------------
  void gate_h(std::size_t a);
  void gate_s(std::size_t a);
  void gate_s_dag(std::size_t a);
  void gate_sqrt_x(std::size_t a);
  void gate_sqrt_x_dag(std::size_t a);
  void gate_h_yz(std::size_t a);
  void gate_x(std::size_t a);
  void gate_y(std::size_t a);
  void gate_z(std::size_t a);
  void gate_cnot(std::size_t c, std::size_t t);
  void gate_cz(std::size_t a, std::size_t b);
  void gate_swap(std::size_t a, std::size_t b);
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

  /// Number of mode-switch transposes performed (benchmark diagnostics).
  std::size_t transpose_count() const { return transpose_count_; }

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
  std::size_t transpose_count_ = 0;
  std::size_t col_words_;  // words per column array (covers num_rows bits)
  BitMatrix cols_;  // column mode: num_cols x num_rows bits
  BitMatrix rows_;  // row mode: num_rows x num_cols bits
};

}  // namespace symphase
