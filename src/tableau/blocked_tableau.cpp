#include "tableau/blocked_tableau.hpp"

#include <algorithm>

#include "bitvec/transpose.hpp"
#include "common/simd_word.hpp"
#include "tableau/row_kernels.hpp"

namespace symphase {

namespace {

constexpr std::size_t kLine = BlockedTableau::kTileWordsPerLine;

/// The constant column s_0 is bit 0 of its tile-column's lines.
alignas(64) constexpr Word kConstantBit[kLine] = {1};

/// Stores `value` to `line` and sets `bit` of `mask` to whether it is
/// nonzero, without a branch.
inline void store_tracked(WideWord value, Word* line, Word* mask,
                          std::size_t bit) {
  value.store(line);
  Word& word = mask[word_index(bit)];
  word = (word & ~bit_mask(bit)) |
         (Word{value.nonzero()} << bit_offset(bit));
}

}  // namespace

BlockedTableau::BlockedTableau(std::size_t n, std::size_t phase_capacity)
    : shape_(n, /*col_align=*/kTileBits, phase_capacity),
      tile_rows_(ceil_div(shape_.num_rows(), kTileBits)),
      tile_cols_(shape_.num_cols() / kTileBits),
      phase_tiles_(tile_cols_ - phase_tile_base()),
      occupancy_words_(words_for_bits(phase_tiles_)),
      col_oriented_(tile_cols_, 0),
      tiles_(tile_rows_ * tile_cols_ * kTileWords, 0),
      occupancy_(shape_.num_rows() * occupancy_words_, 0) {
  // Fresh tiles are all-zero, hence orientation-invariant; start
  // row-oriented and write the identity generators through row lines:
  // row-oriented bit (r, c) is bit (c % 512) of the row line.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t dr = shape_.destab_row(i);
    Word* dline = row_line(dr, x_col(i) / kTileBits);
    set_bit(dline, x_col(i) % kTileBits, true);
    const std::size_t sr = shape_.stab_row(i);
    Word* sline = row_line(sr, z_col(i) / kTileBits);
    set_bit(sline, z_col(i) % kTileBits, true);
  }
}

std::size_t BlockedTableau::allocate_phase_column() {
  SYMPHASE_CHECK_MSG(phase_used_ < shape_.phase_capacity,
                     "phase capacity " << shape_.phase_capacity
                                       << " exhausted");
  return phase_used_++;
}

void BlockedTableau::set_orientation(std::size_t tc, bool column_oriented) {
  SYMPHASE_ASSERT(col_oriented_[tc] != (column_oriented ? 1 : 0));
  for (std::size_t tr = 0; tr < tile_rows_; ++tr) {
    transpose_tile512_inplace(tile(tr, tc));
  }
  col_oriented_[tc] = column_oriented ? 1 : 0;
  col_oriented_count_ += column_oriented ? 1 : std::size_t(-1);
  if (!column_oriented && tc >= phase_tile_base()) {
    rescan_occupancy(tc);
  }
}

void BlockedTableau::rescan_occupancy(std::size_t tc) {
  const std::size_t k = tc - phase_tile_base();
  for (std::size_t r = 0; r < shape_.num_rows(); ++r) {
    Word* line = row_line(r, tc);
    store_tracked(WideWord::load(line), line, occupancy(r), k);
  }
}

void BlockedTableau::prepare_row_mode() {
  if (all_rows_ready()) {
    return;
  }
  const std::size_t live = live_tile_cols();
  for (std::size_t tc = 0; tc < live && !all_rows_ready(); ++tc) {
    if (col_oriented_[tc]) {
      set_orientation(tc, false);
    }
  }
  SYMPHASE_ASSERT(all_rows_ready());
}

void BlockedTableau::phase_xor_cols_where_z(
    std::size_t a, std::span<const std::uint32_t> phase_cols) {
  SYMPHASE_CHECK(a < shape_.n);
  ensure_col_oriented(z_col(a));
  for (const std::uint32_t pc : phase_cols) {
    SYMPHASE_ASSERT(pc < phase_used_);
    ensure_col_oriented(phase_col(pc));
  }
  for (std::size_t tr = 0; tr < tile_rows_; ++tr) {
    const WideWord z = WideWord::load(col_line(tr, z_col(a)));
    for (const std::uint32_t pc : phase_cols) {
      Word* p = col_line(tr, phase_col(pc));
      (WideWord::load(p) ^ z).store(p);
    }
  }
}

void BlockedTableau::phase_xor_cols_where_x(
    std::size_t a, std::span<const std::uint32_t> phase_cols) {
  SYMPHASE_CHECK(a < shape_.n);
  ensure_col_oriented(x_col(a));
  for (const std::uint32_t pc : phase_cols) {
    SYMPHASE_ASSERT(pc < phase_used_);
    ensure_col_oriented(phase_col(pc));
  }
  for (std::size_t tr = 0; tr < tile_rows_; ++tr) {
    const WideWord x = WideWord::load(col_line(tr, x_col(a)));
    for (const std::uint32_t pc : phase_cols) {
      Word* p = col_line(tr, phase_col(pc));
      (WideWord::load(p) ^ x).store(p);
    }
  }
}

bool BlockedTableau::bit_at(std::size_t row, std::size_t col) const {
  const std::size_t tc = col / kTileBits;
  if (col_oriented_[tc]) {
    const Word* line =
        tile(row / kTileBits, tc) + (col % kTileBits) * kTileWordsPerLine;
    return get_bit(line, row % kTileBits);
  }
  const Word* line =
      tile(row / kTileBits, tc) + (row % kTileBits) * kTileWordsPerLine;
  return get_bit(line, col % kTileBits);
}

bool BlockedTableau::x_bit(std::size_t row, std::size_t q) const {
  return bit_at(row, x_col(q));
}

bool BlockedTableau::z_bit(std::size_t row, std::size_t q) const {
  return bit_at(row, z_col(q));
}

void BlockedTableau::column_bits(std::size_t col, Word* out) const {
  const std::size_t rows = 2 * shape_.n;
  const std::size_t tc = col / kTileBits;
  const std::size_t bit = col % kTileBits;
  for (std::size_t tr = 0; tr * kTileBits < rows; ++tr) {
    const std::size_t count = std::min(kTileBits, rows - tr * kTileBits);
    Word* dst = out + tr * kLine;
    if (col_oriented_[tc]) {
      wide::copy_words(dst, tile(tr, tc) + bit * kLine, words_for_bits(count));
    } else {
      gather_bit_column(tile(tr, tc) + word_index(bit), kLine,
                        bit_offset(bit), count, dst);
    }
  }
  // A column line also carries the scratch row.
  out[word_index(rows - 1)] &= tail_mask(rows);
}

void BlockedTableau::x_column(std::size_t q, Word* out) const {
  column_bits(x_col(q), out);
}

void BlockedTableau::z_column(std::size_t q, Word* out) const {
  column_bits(z_col(q), out);
}

void BlockedTableau::row_mult(std::size_t dst, std::size_t src) {
  SYMPHASE_ASSERT(all_rows_ready());
  SYMPHASE_ASSERT(dst != src);
  const std::size_t xz_tiles = shape_.x_stride() / kTileBits;

  PhaseTally tally;
  for (std::size_t tc = 0; tc < xz_tiles; ++tc) {
    rowsum_xor_accumulate(row_line(dst, tc), row_line(dst, tc + xz_tiles),
                          row_line(src, tc), row_line(src, tc + xz_tiles),
                          kLine, tally);
  }
  const int exponent = tally.i_exponent_mod4();
  SYMPHASE_ASSERT(exponent % 2 == 0);

  // The constant column's tile-column is always visited, with an i^2
  // product's sign flip XORed in register; then the source's other
  // occupied tile-columns.
  const std::size_t base = phase_tile_base();
  const WideWord sign = WideWord::splat(static_cast<Word>(exponent >> 1)) &
                        WideWord::load(kConstantBit);
  Word* dst_occupancy = occupancy(dst);
  const auto xor_line = [&](std::size_t k, WideWord extra) {
    Word* line = row_line(dst, base + k);
    store_tracked(WideWord::load(line) ^
                      WideWord::load(row_line(src, base + k)) ^ extra,
                  line, dst_occupancy, k);
  };
  xor_line(0, sign);
  for_each_set_bit(occupancy(src), 1, phase_tiles_,
                   [&](std::size_t k) { xor_line(k, WideWord::zero()); });
}

void BlockedTableau::row_mult_xz(std::size_t dst, std::size_t src) {
  SYMPHASE_ASSERT(all_rows_ready());
  SYMPHASE_ASSERT(dst != src);
  for (std::size_t tc = 0; tc < phase_tile_base(); ++tc) {
    wide::xor_words(row_line(dst, tc), row_line(src, tc), kLine);
  }
}

void BlockedTableau::row_copy(std::size_t dst, std::size_t src) {
  if (dst == src) {
    return;
  }
  row_copy_xz(dst, src);
  // Lines under a clear bit are zero, so copying the constant column's
  // line and every line either row occupies copies the whole phase.
  const std::size_t base = phase_tile_base();
  const auto copy_line = [&](std::size_t k) {
    WideWord::load(row_line(src, base + k)).store(row_line(dst, base + k));
  };
  copy_line(0);
  for_each_set_bit(occupancy(dst), 1, phase_tiles_, copy_line);
  for_each_set_bit(occupancy(src), 1, phase_tiles_, copy_line);
  std::copy_n(occupancy(src), occupancy_words_, occupancy(dst));
}

void BlockedTableau::row_copy_xz(std::size_t dst, std::size_t src) {
  SYMPHASE_ASSERT(all_rows_ready());
  for (std::size_t tc = 0; tc < phase_tile_base(); ++tc) {
    wide::copy_words(row_line(dst, tc), row_line(src, tc), kLine);
  }
}

void BlockedTableau::row_clear(std::size_t row) {
  SYMPHASE_ASSERT(all_rows_ready());
  for (std::size_t tc = 0; tc < phase_tile_base(); ++tc) {
    wide::clear_words(row_line(row, tc), kLine);
  }
  const std::size_t base = phase_tile_base();
  const auto clear_line = [&](std::size_t k) {
    WideWord::zero().store(row_line(row, base + k));
  };
  clear_line(0);
  for_each_set_bit(occupancy(row), 1, phase_tiles_, clear_line);
  std::fill_n(occupancy(row), occupancy_words_, Word{0});
}

void BlockedTableau::row_set_plus_z(std::size_t row, std::size_t q) {
  row_clear(row);
  Word* line = row_line(row, z_col(q) / kTileBits);
  set_bit(line, z_col(q) % kTileBits, true);
}

std::vector<std::uint32_t> BlockedTableau::row_phase_support(
    std::size_t row) const {
  SYMPHASE_ASSERT(all_rows_ready());
  std::vector<std::uint32_t> support;
  for_each_set_bit(occupancy(row), 0, phase_tiles_, [&](std::size_t k) {
    const std::size_t first = k * kTileBits;
    SYMPHASE_ASSERT(first < phase_used_);
    for_each_set_bit(row_line(row, phase_tile_base() + k), 0,
                     std::min(kTileBits, phase_used_ - first),
                     [&](std::size_t b) {
                       support.push_back(static_cast<std::uint32_t>(first + b));
                     });
  });
  return support;
}

void BlockedTableau::row_phase_xor_bit(std::size_t row,
                                       std::size_t phase_col_index) {
  SYMPHASE_ASSERT(phase_col_index < phase_used_);
  const std::size_t c = phase_col(phase_col_index);
  const std::size_t tc = c / kTileBits;
  flip_bit(row_line(row, tc), c % kTileBits);
  const std::size_t k = tc - phase_tile_base();
  occupancy(row)[word_index(k)] |= bit_mask(k);
}

bool BlockedTableau::row_phase_bit(std::size_t row,
                                   std::size_t phase_col_index) const {
  SYMPHASE_ASSERT(phase_col_index < phase_used_);
  return bit_at(row, phase_col(phase_col_index));
}

}  // namespace symphase
