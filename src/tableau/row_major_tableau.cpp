#include "tableau/row_major_tableau.hpp"

#include "tableau/dense_row_ops.hpp"
#include "tableau/row_kernels.hpp"

namespace symphase {

RowMajorTableau::RowMajorTableau(std::size_t n, std::size_t phase_capacity)
    : shape_(n, /*col_align=*/64, phase_capacity),
      bits_(shape_.num_rows(), shape_.num_cols()) {
  for (std::size_t i = 0; i < n; ++i) {
    bits_.set(shape_.destab_row(i), x_col(i), true);
    bits_.set(shape_.stab_row(i), z_col(i), true);
  }
}

std::size_t RowMajorTableau::allocate_phase_column() {
  SYMPHASE_CHECK_MSG(phase_used_ < shape_.phase_capacity,
                     "phase capacity " << shape_.phase_capacity
                                       << " exhausted");
  return phase_used_++;
}

void RowMajorTableau::phase_xor_cols_where_z(
    std::size_t a, std::span<const std::uint32_t> phase_cols) {
  SYMPHASE_CHECK(a < shape_.n);
  const std::size_t zc = z_col(a);
  for (std::size_t i = 0; i < 2 * shape_.n; ++i) {
    Word* row = bits_.row(i);
    if (get_bit(row, zc)) {
      for (const std::uint32_t col : phase_cols) {
        SYMPHASE_ASSERT(col < phase_used_);
        flip_bit(row, phase_col(col));
      }
    }
  }
}

void RowMajorTableau::phase_xor_cols_where_x(
    std::size_t a, std::span<const std::uint32_t> phase_cols) {
  SYMPHASE_CHECK(a < shape_.n);
  const std::size_t xc = x_col(a);
  for (std::size_t i = 0; i < 2 * shape_.n; ++i) {
    Word* row = bits_.row(i);
    if (get_bit(row, xc)) {
      for (const std::uint32_t col : phase_cols) {
        SYMPHASE_ASSERT(col < phase_used_);
        flip_bit(row, phase_col(col));
      }
    }
  }
}

bool RowMajorTableau::x_bit(std::size_t row, std::size_t q) const {
  return bits_.get(row, x_col(q));
}

bool RowMajorTableau::z_bit(std::size_t row, std::size_t q) const {
  return bits_.get(row, z_col(q));
}

void RowMajorTableau::x_column(std::size_t q, Word* out) const {
  dense_rows::column_bits(bits_, shape_, x_col(q), out);
}

void RowMajorTableau::z_column(std::size_t q, Word* out) const {
  dense_rows::column_bits(bits_, shape_, z_col(q), out);
}

void RowMajorTableau::row_mult(std::size_t dst, std::size_t src) {
  dense_rows::row_mult(bits_, shape_, phase_words_used(), dst, src);
}

void RowMajorTableau::row_copy(std::size_t dst, std::size_t src) {
  dense_rows::row_copy(bits_, dst, src);
}

void RowMajorTableau::row_mult_xz(std::size_t dst, std::size_t src) {
  dense_rows::row_mult_xz(bits_, shape_, dst, src);
}

void RowMajorTableau::row_copy_xz(std::size_t dst, std::size_t src) {
  dense_rows::row_copy_xz(bits_, shape_, dst, src);
}

void RowMajorTableau::row_clear(std::size_t row) { bits_.clear_row(row); }

void RowMajorTableau::row_set_plus_z(std::size_t row, std::size_t q) {
  dense_rows::row_set_plus_z(bits_, shape_, row, q);
}

std::vector<std::uint32_t> RowMajorTableau::row_phase_support(
    std::size_t row) const {
  return dense_rows::row_phase_support(bits_, shape_, phase_used_, row);
}

void RowMajorTableau::row_phase_xor_bit(std::size_t row,
                                        std::size_t phase_col_index) {
  SYMPHASE_ASSERT(phase_col_index < phase_used_);
  bits_.flip(row, phase_col(phase_col_index));
}

bool RowMajorTableau::row_phase_bit(std::size_t row,
                                    std::size_t phase_col_index) const {
  SYMPHASE_ASSERT(phase_col_index < phase_used_);
  return bits_.get(row, phase_col(phase_col_index));
}

}  // namespace symphase
