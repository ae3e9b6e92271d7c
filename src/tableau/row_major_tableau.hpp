#pragma once

/// \file row_major_tableau.hpp
/// Row-major tableau layout (paper Fig. 2a, the chp.c layout).
///
/// Each tableau row (destabilizer/stabilizer/scratch) is one contiguous
/// packed bit-row: [X band | Z band | phase band]. Row operations
/// (measurements) stream whole cache lines; column operations (gates)
/// touch one bit per row across strided rows, which is exactly the
/// weakness the paper's §4 attributes to this layout.
///
/// The three layouts share one set of members, which
/// StabilizerSimulator<Layout> and SymPhaseCompiler<Layout> call: mode
/// switches, fault ops, row ops and a gate traversal. The gates' rules
/// live in clifford_gates.hpp; a layout owns only how `apply_gate` walks
/// its memory. See shape.hpp for the logical geometry.

#include <cstdint>
#include <span>
#include <vector>

#include "bitvec/bit_matrix.hpp"
#include "tableau/clifford_gates.hpp"
#include "tableau/shape.hpp"

namespace symphase {

class RowMajorTableau {
 public:
  /// Identity tableau on n qubits: destabilizer i = +X_i, stabilizer
  /// i = +Z_i, all phases zero. `phase_capacity` counts phase columns
  /// including the constant column 0.
  RowMajorTableau(std::size_t n, std::size_t phase_capacity = 1);

  const TableauShape& shape() const { return shape_; }
  std::size_t num_qubits() const { return shape_.n; }

  // --- Phase-column allocation -------------------------------------
  std::size_t phase_used() const { return phase_used_; }
  std::size_t phase_words_used() const { return words_for_bits(phase_used_); }
  std::size_t allocate_phase_column();

  // --- Mode switching (no-ops for this layout) ----------------------
  void prepare_column_mode() {}
  void prepare_row_mode() {}

  // --- Column-mode operations (gates / faults) ----------------------
  /// Gate traversal (call it through apply_unitary): hands `Rule` one bit
  /// of each column it names, generator row by generator row. A rule only
  /// XORs into the sign, so the sign lane goes in as zero and comes out as
  /// the flip; each bit is written only where it changes, and the phase
  /// band is touched only where the sign flips.
  template <typename Rule>
  void apply_gate(std::size_t a, std::size_t b) {
    const std::size_t cols[clifford::kLanes] = {
        x_col(a), z_col(a), x_col(b), z_col(b), phase_col(0)};
    for (std::size_t i = 0; i < 2 * shape_.n; ++i) {
      Word* row = bits_.row(i);
      Word in[clifford::kLanes] = {};
      clifford::step<Rule>(
          [&](std::size_t k) {
            if (k != clifford::kSignLane) {
              in[k] = get_bit(row, cols[k]);
            }
            return in[k];
          },
          [&](std::size_t k, Word v) {
            if (((v ^ in[k]) & 1) != 0) {
              flip_bit(row, cols[k]);
            }
          });
    }
  }

  /// X^e fault at qubit a: rows with a Z component on `a` get the phase
  /// columns in `phase_cols` flipped (paper Init-P).
  void phase_xor_cols_where_z(std::size_t a,
                              std::span<const std::uint32_t> phase_cols);
  /// Z^e fault at qubit a: same, for rows with an X component.
  void phase_xor_cols_where_x(std::size_t a,
                              std::span<const std::uint32_t> phase_cols);

  // --- Row-mode operations (measurements) ---------------------------
  bool x_bit(std::size_t row, std::size_t q) const;
  bool z_bit(std::size_t row, std::size_t q) const;
  /// Qubit q's X (Z) bits of the 2n generator rows as one row mask: bit r
  /// of `out` is x_bit(r, q). `out` holds words_for_bits(2n) words.
  void x_column(std::size_t q, Word* out) const;
  void z_column(std::size_t q, Word* out) const;

  /// row(dst) := row(dst) · row(src) with exact phase tracking. The
  /// accumulated i exponent must be even (commuting-product invariant).
  void row_mult(std::size_t dst, std::size_t src);
  void row_copy(std::size_t dst, std::size_t src);
  /// row_mult / row_copy restricted to the X/Z bands: dst's phase columns
  /// keep their old values. For rows whose phases no caller reads.
  void row_mult_xz(std::size_t dst, std::size_t src);
  void row_copy_xz(std::size_t dst, std::size_t src);
  /// row := +Z_q (X/Z bands and all phase columns cleared).
  void row_set_plus_z(std::size_t row, std::size_t q);
  /// row := identity with zero phase.
  void row_clear(std::size_t row);

  /// Sorted phase columns set in `row`.
  std::vector<std::uint32_t> row_phase_support(std::size_t row) const;
  void row_phase_xor_bit(std::size_t row, std::size_t phase_col);
  bool row_phase_bit(std::size_t row, std::size_t phase_col) const;

 private:
  std::size_t x_col(std::size_t q) const { return q; }
  std::size_t z_col(std::size_t q) const { return shape_.z_col_base() + q; }
  std::size_t phase_col(std::size_t b) const {
    return shape_.phase_col_base() + b;
  }

  TableauShape shape_;
  std::size_t phase_used_ = 1;
  BitMatrix bits_;  // shape_.num_rows() x shape_.num_cols()
};

}  // namespace symphase
