#pragma once

/// \file blocked_tableau.hpp
/// Blocked tableau layout (paper Fig. 2d): the SymPhase data layout.
///
/// The tableau is tiled into 512×512-bit blocks (32 KiB each). Each
/// *tile-column* (all blocks covering the same 512 logical columns)
/// carries its own orientation:
///   - column-oriented: the tile stores its transpose row-major, so a
///     logical column is 8 contiguous 64-bit words per tile-row — gates
///     stream aligned cache lines;
///   - row-oriented: a logical row is 8 contiguous words per tile-column
///     — measurements stream rows.
/// Orientation flips are *local* 512×512 in-place bit transposes
/// (Fig. 2c) and lazy: a gate flips only the tile-columns of the lanes its
/// rule in clifford_gates.hpp names (X_a, Z_a, those of b, the constant
/// phase column; X flips only Z_a's and the constant column's, SWAP never
/// the phase column's); a measurement burst flips back whatever the
/// preceding gate burst touched. Phase tile-columns outside the active
/// frontier are never transposed at all — this is what makes the layout
/// cheaper than the Stim-style whole-matrix transposition when the
/// symbolic phase region grows large. The layout owns only the gate
/// traversal (`apply_gate`): one WideWord per tile-row and lane.
///
/// All-zero tiles are orientation-invariant, so lazy phase-column growth
/// composes safely with the orientation machinery.
///
/// Each row carries an occupancy mask, one bit per phase tile-column, set
/// wherever the row's line there may be nonzero (a clear bit means an
/// all-zero line). Row ops keep the bits exact from the result lines they
/// hold in register, row_phase_xor_bit sets one, and a phase tile-column's
/// bits are rescanned for every row when it returns to row orientation,
/// the only state in which column ops can have written it. Row ops apply
/// their phase part at once on the tile-columns their source (for a copy
/// or clear, also their destination) occupies, always visiting the
/// constant column's tile-column; phase reads visit only occupied
/// tile-columns. A stabilizer row's phase support sits in a few of them.

#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/simd_word.hpp"
#include "tableau/clifford_gates.hpp"
#include "tableau/shape.hpp"

namespace symphase {

class BlockedTableau {
 public:
  BlockedTableau(std::size_t n, std::size_t phase_capacity = 1);

  static constexpr std::size_t kTileBits = 512;
  static constexpr std::size_t kTileWordsPerLine = kTileBits / kWordBits;  // 8
  static constexpr std::size_t kTileWords = kTileBits * kTileWordsPerLine;
  // Every tile line is exactly one SIMD lane: a gate loads one logical
  // column segment per tile-row as one WideWord.
  static_assert(kTileWordsPerLine == WideWord::kWords);

  const TableauShape& shape() const { return shape_; }
  std::size_t num_qubits() const { return shape_.n; }

  std::size_t phase_used() const { return phase_used_; }
  std::size_t allocate_phase_column();

  /// Lazy: gates flip the tile-columns they touch on demand.
  void prepare_column_mode() {}
  /// Ensures every live tile-column is row-oriented (measurement mode).
  void prepare_row_mode();

  // --- Column operations (gates / faults) ------------------------------
  /// Gate traversal (call it through apply_unitary): column-orients the
  /// tile-columns of the lanes `Rule` names, then hands it one column line
  /// per lane and tile-row. Padding rows (beyond 2n+1) hold zeros and
  /// transform to zeros.
  template <typename Rule>
  void apply_gate(std::size_t a, std::size_t b) {
    const std::size_t cols[clifford::kLanes] = {
        x_col(a), z_col(a), x_col(b), z_col(b), phase_col(0)};
    clifford::for_each_lane<Rule::kReads | Rule::kWrites>(
        [&](std::size_t k) { ensure_col_oriented(cols[k]); });
    for (std::size_t tr = 0; tr < tile_rows_; ++tr) {
      clifford::step<Rule>(
          [&](std::size_t k) { return WideWord::load(col_line(tr, cols[k])); },
          [&](std::size_t k, WideWord v) { v.store(col_line(tr, cols[k])); });
    }
  }
  void phase_xor_cols_where_z(std::size_t a,
                              std::span<const std::uint32_t> phase_cols);
  void phase_xor_cols_where_x(std::size_t a,
                              std::span<const std::uint32_t> phase_cols);

  // --- Row operations (measurements; require prepare_row_mode) ---------
  bool x_bit(std::size_t row, std::size_t q) const;
  bool z_bit(std::size_t row, std::size_t q) const;
  /// Generator-row masks of qubit q's X (Z) column, in either
  /// orientation (see RowMajorTableau).
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

  Word* tile(std::size_t tr, std::size_t tc) {
    return tiles_.data() + (tr * tile_cols_ + tc) * kTileWords;
  }
  const Word* tile(std::size_t tr, std::size_t tc) const {
    return tiles_.data() + (tr * tile_cols_ + tc) * kTileWords;
  }

  /// Column-oriented access: 8-word line of logical column c in tile-row
  /// tr. Tile-column of c must be column-oriented.
  Word* col_line(std::size_t tr, std::size_t c) {
    SYMPHASE_ASSERT(col_oriented_[c / kTileBits]);
    return tile(tr, c / kTileBits) + (c % kTileBits) * kTileWordsPerLine;
  }
  const Word* col_line(std::size_t tr, std::size_t c) const {
    SYMPHASE_ASSERT(col_oriented_[c / kTileBits]);
    return tile(tr, c / kTileBits) + (c % kTileBits) * kTileWordsPerLine;
  }

  /// Row-oriented access: 8-word line of logical row r in tile-column tc.
  Word* row_line(std::size_t r, std::size_t tc) {
    SYMPHASE_ASSERT(!col_oriented_[tc]);
    return tile(r / kTileBits, tc) + (r % kTileBits) * kTileWordsPerLine;
  }
  const Word* row_line(std::size_t r, std::size_t tc) const {
    SYMPHASE_ASSERT(!col_oriented_[tc]);
    return tile(r / kTileBits, tc) + (r % kTileBits) * kTileWordsPerLine;
  }

  /// Tile-columns carrying live data (XZ bands + used phase prefix).
  std::size_t live_tile_cols() const {
    return (shape_.phase_col_base() + round_up_pow2(phase_used_, kTileBits)) /
           kTileBits;
  }
  std::size_t phase_tile_base() const {
    return shape_.phase_col_base() / kTileBits;
  }

  /// Row r's occupancy mask: bit k covers phase tile-column k (tile-column
  /// phase_tile_base() + k).
  Word* occupancy(std::size_t r) {
    return occupancy_.data() + r * occupancy_words_;
  }
  const Word* occupancy(std::size_t r) const {
    return occupancy_.data() + r * occupancy_words_;
  }
  /// Recomputes every row's bit for phase tile-column tc (row-oriented).
  void rescan_occupancy(std::size_t tc);

  void set_orientation(std::size_t tc, bool column_oriented);
  void ensure_col_oriented(std::size_t logical_col) {
    const std::size_t tc = logical_col / kTileBits;
    if (!col_oriented_[tc]) {
      set_orientation(tc, true);
    }
  }
  /// True when every live tile-column is row-oriented.
  bool all_rows_ready() const { return col_oriented_count_ == 0; }

  bool bit_at(std::size_t row, std::size_t col) const;
  void column_bits(std::size_t col, Word* out) const;

  TableauShape shape_;
  std::size_t phase_used_ = 1;
  std::size_t tile_rows_ = 0;
  std::size_t tile_cols_ = 0;
  std::size_t phase_tiles_ = 0;
  std::size_t occupancy_words_ = 0;
  std::size_t col_oriented_count_ = 0;
  std::vector<std::uint8_t> col_oriented_;  // per tile-column
  AlignedWordVec tiles_;
  std::vector<Word> occupancy_;  // num_rows() x occupancy_words_
};

}  // namespace symphase
