#include "tableau/blocked_tableau.hpp"

#include <algorithm>

#include "bitvec/transpose.hpp"
#include "common/simd_word.hpp"
#include "tableau/row_kernels.hpp"

namespace symphase {

namespace {

constexpr std::size_t kLine = BlockedTableau::kTileWordsPerLine;

// Every tile line is exactly one SIMD lane: the gate kernels below load a
// full logical column (or row) segment as one WideWord per tile-row.
static_assert(kLine == WideWord::kWords);

}  // namespace

BlockedTableau::BlockedTableau(std::size_t n, std::size_t phase_capacity)
    : shape_(n, /*col_align=*/kTileBits, phase_capacity),
      tile_rows_(ceil_div(shape_.num_rows(), kTileBits)),
      tile_cols_(shape_.num_cols() / kTileBits),
      col_oriented_(tile_cols_, 0),
      tiles_(tile_rows_ * tile_cols_ * kTileWords, 0) {
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
  if (tc >= phase_tile_base()) {
    flush_phase_log();
  }
  for (std::size_t tr = 0; tr < tile_rows_; ++tr) {
    transpose_tile512_inplace(tile(tr, tc));
  }
  col_oriented_[tc] = column_oriented ? 1 : 0;
  col_oriented_count_ += column_oriented ? 1 : std::size_t(-1);
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

// Gate kernels: each logical column is kLine contiguous words per
// tile-row once its tile-column is column-oriented. Padding rows (beyond
// 2n+1) hold zeros and transform to zeros.

void BlockedTableau::gate_h(std::size_t a) {
  SYMPHASE_CHECK(a < shape_.n);
  ensure_col_oriented(x_col(a));
  ensure_col_oriented(z_col(a));
  ensure_col_oriented(phase_col(0));
  for (std::size_t tr = 0; tr < tile_rows_; ++tr) {
    Word* xp = col_line(tr, x_col(a));
    Word* zp = col_line(tr, z_col(a));
    Word* rp = col_line(tr, phase_col(0));
    const WideWord x = WideWord::load(xp);
    const WideWord z = WideWord::load(zp);
    (WideWord::load(rp) ^ (x & z)).store(rp);
    z.store(xp);
    x.store(zp);
  }
}

void BlockedTableau::gate_s(std::size_t a) {
  SYMPHASE_CHECK(a < shape_.n);
  ensure_col_oriented(x_col(a));
  ensure_col_oriented(z_col(a));
  ensure_col_oriented(phase_col(0));
  for (std::size_t tr = 0; tr < tile_rows_; ++tr) {
    Word* xp = col_line(tr, x_col(a));
    Word* zp = col_line(tr, z_col(a));
    Word* rp = col_line(tr, phase_col(0));
    const WideWord x = WideWord::load(xp);
    const WideWord z = WideWord::load(zp);
    (WideWord::load(rp) ^ (x & z)).store(rp);
    (z ^ x).store(zp);
  }
}

void BlockedTableau::gate_s_dag(std::size_t a) {
  SYMPHASE_CHECK(a < shape_.n);
  ensure_col_oriented(x_col(a));
  ensure_col_oriented(z_col(a));
  ensure_col_oriented(phase_col(0));
  for (std::size_t tr = 0; tr < tile_rows_; ++tr) {
    Word* xp = col_line(tr, x_col(a));
    Word* zp = col_line(tr, z_col(a));
    Word* rp = col_line(tr, phase_col(0));
    const WideWord x = WideWord::load(xp);
    const WideWord z = WideWord::load(zp);
    (WideWord::load(rp) ^ andnot(z, x)).store(rp);
    (z ^ x).store(zp);
  }
}

void BlockedTableau::gate_sqrt_x(std::size_t a) {
  SYMPHASE_CHECK(a < shape_.n);
  ensure_col_oriented(x_col(a));
  ensure_col_oriented(z_col(a));
  ensure_col_oriented(phase_col(0));
  for (std::size_t tr = 0; tr < tile_rows_; ++tr) {
    Word* xp = col_line(tr, x_col(a));
    Word* zp = col_line(tr, z_col(a));
    Word* rp = col_line(tr, phase_col(0));
    const WideWord x = WideWord::load(xp);
    const WideWord z = WideWord::load(zp);
    (WideWord::load(rp) ^ andnot(x, z)).store(rp);
    (x ^ z).store(xp);
  }
}

void BlockedTableau::gate_sqrt_x_dag(std::size_t a) {
  SYMPHASE_CHECK(a < shape_.n);
  ensure_col_oriented(x_col(a));
  ensure_col_oriented(z_col(a));
  ensure_col_oriented(phase_col(0));
  for (std::size_t tr = 0; tr < tile_rows_; ++tr) {
    Word* xp = col_line(tr, x_col(a));
    Word* zp = col_line(tr, z_col(a));
    Word* rp = col_line(tr, phase_col(0));
    const WideWord x = WideWord::load(xp);
    const WideWord z = WideWord::load(zp);
    (WideWord::load(rp) ^ (x & z)).store(rp);
    (x ^ z).store(xp);
  }
}

void BlockedTableau::gate_h_yz(std::size_t a) {
  SYMPHASE_CHECK(a < shape_.n);
  ensure_col_oriented(x_col(a));
  ensure_col_oriented(z_col(a));
  ensure_col_oriented(phase_col(0));
  for (std::size_t tr = 0; tr < tile_rows_; ++tr) {
    Word* xp = col_line(tr, x_col(a));
    Word* zp = col_line(tr, z_col(a));
    Word* rp = col_line(tr, phase_col(0));
    const WideWord x = WideWord::load(xp);
    const WideWord z = WideWord::load(zp);
    (WideWord::load(rp) ^ andnot(z, x)).store(rp);
    (x ^ z).store(xp);
  }
}

void BlockedTableau::gate_x(std::size_t a) {
  const std::uint32_t cols[1] = {0};
  phase_xor_cols_where_z(a, cols);
}

void BlockedTableau::gate_z(std::size_t a) {
  const std::uint32_t cols[1] = {0};
  phase_xor_cols_where_x(a, cols);
}

void BlockedTableau::gate_y(std::size_t a) {
  SYMPHASE_CHECK(a < shape_.n);
  ensure_col_oriented(x_col(a));
  ensure_col_oriented(z_col(a));
  ensure_col_oriented(phase_col(0));
  for (std::size_t tr = 0; tr < tile_rows_; ++tr) {
    const WideWord x = WideWord::load(col_line(tr, x_col(a)));
    const WideWord z = WideWord::load(col_line(tr, z_col(a)));
    Word* rp = col_line(tr, phase_col(0));
    (WideWord::load(rp) ^ x ^ z).store(rp);
  }
}

void BlockedTableau::gate_cnot(std::size_t c, std::size_t t) {
  SYMPHASE_CHECK(c < shape_.n && t < shape_.n && c != t);
  ensure_col_oriented(x_col(c));
  ensure_col_oriented(z_col(c));
  ensure_col_oriented(x_col(t));
  ensure_col_oriented(z_col(t));
  ensure_col_oriented(phase_col(0));
  for (std::size_t tr = 0; tr < tile_rows_; ++tr) {
    Word* xcp = col_line(tr, x_col(c));
    Word* zcp = col_line(tr, z_col(c));
    Word* xtp = col_line(tr, x_col(t));
    Word* ztp = col_line(tr, z_col(t));
    Word* rp = col_line(tr, phase_col(0));
    const WideWord xc = WideWord::load(xcp);
    const WideWord zc = WideWord::load(zcp);
    const WideWord xt = WideWord::load(xtp);
    const WideWord zt = WideWord::load(ztp);
    (WideWord::load(rp) ^ andnot(xt ^ zc, xc & zt)).store(rp);
    (xt ^ xc).store(xtp);
    (zc ^ zt).store(zcp);
  }
}

void BlockedTableau::gate_cz(std::size_t a, std::size_t b) {
  SYMPHASE_CHECK(a < shape_.n && b < shape_.n && a != b);
  ensure_col_oriented(x_col(a));
  ensure_col_oriented(z_col(a));
  ensure_col_oriented(x_col(b));
  ensure_col_oriented(z_col(b));
  ensure_col_oriented(phase_col(0));
  for (std::size_t tr = 0; tr < tile_rows_; ++tr) {
    Word* xap = col_line(tr, x_col(a));
    Word* zap = col_line(tr, z_col(a));
    Word* xbp = col_line(tr, x_col(b));
    Word* zbp = col_line(tr, z_col(b));
    Word* rp = col_line(tr, phase_col(0));
    const WideWord xa = WideWord::load(xap);
    const WideWord za = WideWord::load(zap);
    const WideWord xb = WideWord::load(xbp);
    const WideWord zb = WideWord::load(zbp);
    (WideWord::load(rp) ^ (xa & xb & (za ^ zb))).store(rp);
    (za ^ xb).store(zap);
    (zb ^ xa).store(zbp);
  }
}

void BlockedTableau::gate_swap(std::size_t a, std::size_t b) {
  SYMPHASE_CHECK(a < shape_.n && b < shape_.n && a != b);
  ensure_col_oriented(x_col(a));
  ensure_col_oriented(z_col(a));
  ensure_col_oriented(x_col(b));
  ensure_col_oriented(z_col(b));
  for (std::size_t tr = 0; tr < tile_rows_; ++tr) {
    wide::swap_words(col_line(tr, x_col(a)), col_line(tr, x_col(b)), kLine);
    wide::swap_words(col_line(tr, z_col(a)), col_line(tr, z_col(b)), kLine);
  }
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
  phase_row_op(exponent == 2 ? PhaseOp::kXorFlipConstant : PhaseOp::kXor, dst,
               src);
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
  phase_row_op(PhaseOp::kCopy, dst, src);
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
  phase_row_op(PhaseOp::kClear, row, row);
}

void BlockedTableau::row_set_plus_z(std::size_t row, std::size_t q) {
  row_clear(row);
  Word* line = row_line(row, z_col(q) / kTileBits);
  set_bit(line, z_col(q) % kTileBits, true);
}

void BlockedTableau::phase_row_op(PhaseOp op, std::size_t dst,
                                  std::size_t src) {
  phase_log_.push_back({row_offset(dst), row_offset(src), op});
  if (phase_log_.size() + phase_flips_.size() >= kPhaseLogCap) {
    flush_phase_log();
  }
}

void BlockedTableau::apply_phase_op(Word* tile_col,
                                    const PhaseLogEntry& entry,
                                    bool constant_tile) {
  Word* dst = tile_col + entry.dst;
  const Word* src = tile_col + entry.src;
  switch (entry.op) {
    case PhaseOp::kXor:
      (WideWord::load(dst) ^ WideWord::load(src)).store(dst);
      break;
    case PhaseOp::kXorFlipConstant:
      (WideWord::load(dst) ^ WideWord::load(src)).store(dst);
      if (constant_tile) {
        dst[0] ^= Word{1};
      }
      break;
    case PhaseOp::kCopy:
      WideWord::load(src).store(dst);
      break;
    case PhaseOp::kClear:
      WideWord::zero().store(dst);
      break;
  }
}

void BlockedTableau::flush_phase_log() const {
  if (phase_log_.empty()) {
    return;
  }
  // Flips at one position commute, so (tile-column, position) order is
  // all the replay needs.
  std::sort(phase_flips_.begin(), phase_flips_.end(),
            [](const PhaseFlip& a, const PhaseFlip& b) {
              return a.tile_col != b.tile_col ? a.tile_col < b.tile_col
                                              : a.seq < b.seq;
            });
  const std::size_t base = phase_tile_base();
  const std::size_t live = live_tile_cols();
  auto flip = phase_flips_.begin();
  for (std::size_t tc = base; tc < live; ++tc) {
    Word* tile_col = tiles_.data() + tc * kTileWords;
    const bool constant_tile = tc == base;
    std::size_t next = 0;
    const auto replay_until = [&](std::size_t end) {
      for (; next < end; ++next) {
        apply_phase_op(tile_col, phase_log_[next], constant_tile);
      }
    };
    for (; flip != phase_flips_.end() && flip->tile_col == tc; ++flip) {
      replay_until(flip->seq);
      flip_bit(tile_col + flip->line, flip->bit);
    }
    replay_until(phase_log_.size());
  }
  SYMPHASE_ASSERT(flip == phase_flips_.end());
  phase_log_.clear();
  phase_flips_.clear();
}

void BlockedTableau::row_phase_read(std::size_t row, Word* out) const {
  SYMPHASE_ASSERT(all_rows_ready());
  flush_phase_log();
  const std::size_t pwords = phase_words_used();
  std::size_t written = 0;
  for (std::size_t tc = phase_tile_base(); written < pwords; ++tc) {
    const Word* line = row_line(row, tc);
    for (std::size_t w = 0; w < kLine && written < pwords; ++w) {
      out[written++] = line[w];
    }
  }
  if (phase_used_ % kWordBits != 0) {
    out[pwords - 1] &= tail_mask(phase_used_);
  }
}

void BlockedTableau::row_phase_xor_bit(std::size_t row,
                                       std::size_t phase_col_index) {
  SYMPHASE_ASSERT(phase_col_index < phase_used_);
  const std::size_t c = phase_col(phase_col_index);
  const std::size_t tc = c / kTileBits;
  SYMPHASE_ASSERT(!col_oriented_[tc]);
  if (phase_log_.empty()) {
    flip_bit(row_line(row, tc), c % kTileBits);
    return;
  }
  phase_flips_.push_back(
      {phase_log_.size(), tc, row_offset(row), c % kTileBits});
  if (phase_log_.size() + phase_flips_.size() >= kPhaseLogCap) {
    flush_phase_log();
  }
}

bool BlockedTableau::row_phase_bit(std::size_t row,
                                   std::size_t phase_col_index) const {
  SYMPHASE_ASSERT(phase_col_index < phase_used_);
  flush_phase_log();
  return bit_at(row, phase_col(phase_col_index));
}

}  // namespace symphase
