#include "tableau/col_major_tableau.hpp"

#include "tableau/dense_row_ops.hpp"

namespace symphase {

ColMajorTableau::ColMajorTableau(std::size_t n, std::size_t phase_capacity)
    : shape_(n, /*col_align=*/64, phase_capacity),
      col_words_(words_for_bits(shape_.num_rows())),
      cols_(shape_.num_cols(), shape_.num_rows()) {
  for (std::size_t i = 0; i < n; ++i) {
    cols_.set(x_col(i), shape_.destab_row(i), true);
    cols_.set(z_col(i), shape_.stab_row(i), true);
  }
}

std::size_t ColMajorTableau::allocate_phase_column() {
  SYMPHASE_CHECK_MSG(phase_used_ < shape_.phase_capacity,
                     "phase capacity " << shape_.phase_capacity
                                       << " exhausted");
  return phase_used_++;
}

void ColMajorTableau::prepare_column_mode() {
  if (column_mode_) {
    return;
  }
  transpose_region(rows_, shape_.num_rows(), live_cols(), cols_);
  column_mode_ = true;
}

void ColMajorTableau::prepare_row_mode() {
  if (!column_mode_) {
    return;
  }
  if (rows_.rows() == 0) {
    rows_ = BitMatrix(shape_.num_rows(), shape_.num_cols());
  }
  transpose_region(cols_, live_cols(), shape_.num_rows(), rows_);
  column_mode_ = false;
}

void ColMajorTableau::phase_xor_cols_where_z(
    std::size_t a, std::span<const std::uint32_t> phase_cols) {
  SYMPHASE_ASSERT(column_mode_);
  SYMPHASE_CHECK(a < shape_.n);
  const Word* z = col(z_col(a));
  for (const std::uint32_t pc : phase_cols) {
    SYMPHASE_ASSERT(pc < phase_used_);
    Word* p = col(phase_col(pc));
    for (std::size_t w = 0; w < col_words_; ++w) {
      p[w] ^= z[w];
    }
  }
}

void ColMajorTableau::phase_xor_cols_where_x(
    std::size_t a, std::span<const std::uint32_t> phase_cols) {
  SYMPHASE_ASSERT(column_mode_);
  SYMPHASE_CHECK(a < shape_.n);
  const Word* x = col(x_col(a));
  for (const std::uint32_t pc : phase_cols) {
    SYMPHASE_ASSERT(pc < phase_used_);
    Word* p = col(phase_col(pc));
    for (std::size_t w = 0; w < col_words_; ++w) {
      p[w] ^= x[w];
    }
  }
}

bool ColMajorTableau::x_bit(std::size_t row, std::size_t q) const {
  return column_mode_ ? cols_.get(x_col(q), row) : rows_.get(row, x_col(q));
}

bool ColMajorTableau::z_bit(std::size_t row, std::size_t q) const {
  return column_mode_ ? cols_.get(z_col(q), row) : rows_.get(row, z_col(q));
}

void ColMajorTableau::column_bits(std::size_t c, Word* out) const {
  if (!column_mode_) {
    dense_rows::column_bits(rows_, shape_, c, out);
    return;
  }
  // A column array also carries the scratch row.
  const std::size_t rows = 2 * shape_.n;
  wide::copy_words(out, col(c), words_for_bits(rows));
  out[word_index(rows - 1)] &= tail_mask(rows);
}

void ColMajorTableau::x_column(std::size_t q, Word* out) const {
  column_bits(x_col(q), out);
}

void ColMajorTableau::z_column(std::size_t q, Word* out) const {
  column_bits(z_col(q), out);
}

void ColMajorTableau::row_mult(std::size_t dst, std::size_t src) {
  SYMPHASE_ASSERT(!column_mode_);
  dense_rows::row_mult(rows_, shape_, phase_words_used(), dst, src);
}

void ColMajorTableau::row_copy(std::size_t dst, std::size_t src) {
  SYMPHASE_ASSERT(!column_mode_);
  dense_rows::row_copy(rows_, dst, src);
}

void ColMajorTableau::row_mult_xz(std::size_t dst, std::size_t src) {
  SYMPHASE_ASSERT(!column_mode_);
  dense_rows::row_mult_xz(rows_, shape_, dst, src);
}

void ColMajorTableau::row_copy_xz(std::size_t dst, std::size_t src) {
  SYMPHASE_ASSERT(!column_mode_);
  dense_rows::row_copy_xz(rows_, shape_, dst, src);
}

void ColMajorTableau::row_set_plus_z(std::size_t row, std::size_t q) {
  SYMPHASE_ASSERT(!column_mode_);
  dense_rows::row_set_plus_z(rows_, shape_, row, q);
}

void ColMajorTableau::row_clear(std::size_t row) {
  SYMPHASE_ASSERT(!column_mode_);
  rows_.clear_row(row);
}

std::vector<std::uint32_t> ColMajorTableau::row_phase_support(
    std::size_t row) const {
  SYMPHASE_ASSERT(!column_mode_);
  return dense_rows::row_phase_support(rows_, shape_, phase_used_, row);
}

void ColMajorTableau::row_phase_xor_bit(std::size_t row,
                                        std::size_t phase_col_index) {
  SYMPHASE_ASSERT(!column_mode_);
  SYMPHASE_ASSERT(phase_col_index < phase_used_);
  rows_.flip(row, phase_col(phase_col_index));
}

bool ColMajorTableau::row_phase_bit(std::size_t row,
                                    std::size_t phase_col_index) const {
  SYMPHASE_ASSERT(phase_col_index < phase_used_);
  return column_mode_ ? cols_.get(phase_col(phase_col_index), row)
                      : rows_.get(row, phase_col(phase_col_index));
}

}  // namespace symphase
