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
/// (Fig. 2c) and lazy: a gate touches at most three tile-columns (X_a,
/// Z_a, constant phase) and flips only those; a measurement burst flips
/// back whatever the preceding gate burst touched. Phase tile-columns
/// outside the active frontier are never transposed at all — this is
/// what makes the layout cheaper than the Stim-style whole-matrix
/// transposition when the symbolic phase region grows large.
///
/// All-zero tiles are orientation-invariant, so lazy phase-column growth
/// composes safely with the orientation machinery.
///
/// Row operations apply their X/Z part at once but only log their phase
/// part (xor, xor plus a constant-bit flip, copy, clear, or a single-bit
/// flip). The log is replayed one phase tile-column at a time, so a
/// measurement burst's row ops run while that tile-column is
/// cache-resident instead of each op streaming its rows' whole phase
/// prefix. It is flushed before any phase bit is read, before a phase
/// tile changes orientation, and when it reaches kPhaseLogCap entries.
///
/// Reading a phase replays the log, so even the const readers write to
/// the tableau: a BlockedTableau is not for concurrent use.

#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "tableau/shape.hpp"

namespace symphase {

class BlockedTableau {
 public:
  BlockedTableau(std::size_t n, std::size_t phase_capacity = 1);

  static constexpr const char* layout_name() { return "blocked512"; }
  static constexpr std::size_t kTileBits = 512;
  static constexpr std::size_t kTileWordsPerLine = kTileBits / kWordBits;  // 8
  static constexpr std::size_t kTileWords = kTileBits * kTileWordsPerLine;

  const TableauShape& shape() const { return shape_; }
  std::size_t num_qubits() const { return shape_.n; }

  std::size_t phase_used() const { return phase_used_; }
  std::size_t phase_words_used() const { return words_for_bits(phase_used_); }
  std::size_t allocate_phase_column();

  /// Lazy: gates flip the tile-columns they touch on demand.
  void prepare_column_mode() {}
  /// Ensures every live tile-column is row-oriented (measurement mode).
  void prepare_row_mode();

  // --- Column operations (gates / faults) ------------------------------
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

  // --- Row operations (measurements; require prepare_row_mode) ---------
  bool x_bit(std::size_t row, std::size_t q) const;
  bool z_bit(std::size_t row, std::size_t q) const;
  void row_mult(std::size_t dst, std::size_t src);
  void row_copy(std::size_t dst, std::size_t src);
  /// X/Z-only row_mult / row_copy (see RowMajorTableau).
  void row_mult_xz(std::size_t dst, std::size_t src);
  void row_copy_xz(std::size_t dst, std::size_t src);
  void row_set_plus_z(std::size_t row, std::size_t q);
  void row_clear(std::size_t row);
  void row_phase_read(std::size_t row, Word* out) const;
  void row_phase_xor_bit(std::size_t row, std::size_t phase_col);
  bool row_phase_bit(std::size_t row, std::size_t phase_col) const;

 private:
  /// Most pending entries (row ops plus bit flips) the phase log holds
  /// before it is replayed. A burst of k random collapses logs up to k·n
  /// row ops, so without a cap a circuit could buy memory with them.
  static constexpr std::size_t kPhaseLogCap = 4096;

  enum class PhaseOp : std::uint8_t { kXor, kXorFlipConstant, kCopy, kClear };
  /// Phase part of one row op. dst/src are row_offset()s: add a
  /// tile-column's base to reach the row's 8-word line in it.
  struct PhaseLogEntry {
    std::size_t dst;
    std::size_t src;
    PhaseOp op;
  };
  /// A bit flip logged after the first `seq` entries, on one tile-column.
  struct PhaseFlip {
    std::size_t seq;
    std::size_t tile_col;
    std::size_t line;  // row_offset() of the row
    std::size_t bit;   // bit within the line
  };

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
  /// Offset of row r's line from the start of its tile-column's first tile.
  std::size_t row_offset(std::size_t r) const {
    return (r / kTileBits) * tile_cols_ * kTileWords +
           (r % kTileBits) * kTileWordsPerLine;
  }

  /// Logs the phase part of a row op; replays the log at kPhaseLogCap.
  void phase_row_op(PhaseOp op, std::size_t dst, std::size_t src);
  static void apply_phase_op(Word* tile_col, const PhaseLogEntry& entry,
                             bool constant_tile);
  /// Replays and empties the phase log. Every phase tile is row-oriented
  /// while entries are pending.
  void flush_phase_log() const;

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

  TableauShape shape_;
  std::size_t phase_used_ = 1;
  std::size_t tile_rows_ = 0;
  std::size_t tile_cols_ = 0;
  std::size_t col_oriented_count_ = 0;
  std::vector<std::uint8_t> col_oriented_;  // per tile-column
  // Mutable because the const phase readers replay the log first.
  mutable AlignedWordVec tiles_;
  mutable std::vector<PhaseLogEntry> phase_log_;
  mutable std::vector<PhaseFlip> phase_flips_;
};

}  // namespace symphase
