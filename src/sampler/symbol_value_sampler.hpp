#pragma once

/// \file symbol_value_sampler.hpp
/// Generation of the symbol-sample matrix B of Algorithm 1, either as B
/// itself or scattered straight into M·B.
///
/// Column j of the paper's B is one joint sample b_j of all symbols;
/// rows of B are stored row-per-symbol with shots packed 64 per word, so
/// XORing expression rows (the sparse M·B product) runs word-parallel
/// across shots.
///
/// Only symbols that actually appear in some measurement expression get
/// a row: symbols that no expression reads cannot affect any outcome, so
/// skipping them leaves the product M·B unchanged while keeping the work
/// proportional to what is read. A fault group's members are sampled
/// jointly; unused members of a used group are simply not materialized.
///
/// One walk over the symbol groups, in a fixed order with fixed draws,
/// deposits the bits in one of two ways:
///   - generate_shard_block writes the rows of B (the dense reference
///     the scatter is tested against);
///   - scatter_shard_block never builds B: groups with few events per
///     reader hand each event to the output rows that read it (through
///     Mᵀ), the other groups go through 128-word scratch rows; a cost
///     model picks the path per group (docs/performance.md). Since M·B
///     is linear over F2 and no bit of B changes, its output is M·B bit
///     for bit.
///
/// Generation is shot-sharded like FrameSimulator::sample: fixed
/// word-aligned shards of the shot axis, one counter-based RNG stream per
/// shard, so the result is bit-identical for any thread count.

#include <cstdint>
#include <span>
#include <vector>

#include "bitvec/bit_matrix.hpp"
#include "common/noise.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "symbolic/symbol_table.hpp"

namespace symphase {

/// Mᵀ, stored compressed for the scatter: for each B row, the rows of
/// M (outputs) whose expressions read it, ascending. Built once per
/// sampler; two flat arrays, so a build costs no per-row allocation and
/// a lookup touches contiguous memory.
class ScatterTargets {
 public:
  /// Transposes the `num_outputs` x `num_b_rows` matrix M by a counting
  /// sort. `for_each_entry(f)` must call f(k, b_row) for every entry of
  /// M with the output row k non-decreasing; it is called twice (count,
  /// then place), so each B row's readers come out ascending.
  template <typename ForEachEntry>
  ScatterTargets(std::size_t num_outputs, std::size_t num_b_rows,
                 ForEachEntry&& for_each_entry)
      : num_outputs_(num_outputs), offsets_(num_b_rows + 1, 0) {
    SYMPHASE_CHECK(num_outputs <= UINT32_MAX);
    for_each_entry([&](std::uint32_t, std::uint32_t b_row) {
      SYMPHASE_ASSERT(b_row < num_b_rows);
      ++offsets_[b_row + 1];
    });
    std::size_t total = 0;
    for (std::size_t r = 0; r < num_b_rows; ++r) {
      total += offsets_[r + 1];
      SYMPHASE_CHECK(total <= UINT32_MAX);
      offsets_[r + 1] = static_cast<std::uint32_t>(total);
    }
    rows_.resize(total);
    std::vector<std::uint32_t> next(offsets_.begin(), offsets_.end() - 1);
    for_each_entry([&](std::uint32_t k, std::uint32_t b_row) {
      rows_[next[b_row]++] = k;
    });
  }

  std::size_t num_b_rows() const { return offsets_.size() - 1; }
  std::size_t num_outputs() const { return num_outputs_; }

  /// The output rows that read B row `b_row`.
  std::span<const std::uint32_t> readers(std::uint32_t b_row) const {
    SYMPHASE_ASSERT(std::size_t{b_row} + 1 < offsets_.size());
    return {rows_.data() + offsets_[b_row],
            offsets_[b_row + 1] - offsets_[b_row]};
  }

 private:
  std::size_t num_outputs_;
  std::vector<std::uint32_t> offsets_;  // num_b_rows() + 1 entries
  std::vector<std::uint32_t> rows_;
};

class SymbolValueSampler {
 public:
  /// `used_symbols` must be sorted and duplicate-free (symbol ids,
  /// including 0 if any expression has a constant term).
  SymbolValueSampler(const SymbolTable& table,
                     std::vector<std::uint32_t> used_symbols);

  /// Number of materialized B rows.
  std::size_t num_rows() const { return used_symbols_.size(); }

  /// Row index of `symbol` in the generated matrix;
  /// fails if the symbol is not in the used set.
  std::uint32_t row_of(std::uint32_t symbol) const {
    SYMPHASE_CHECK(symbol < row_lookup_.size() && row_lookup_[symbol] != 0);
    return row_lookup_[symbol] - 1;
  }

  /// Shots per shard (library-wide constant; see common/parallel.hpp).
  static constexpr std::size_t kShardWords = kSampleShardWords;

  /// Generates global shard `shard` of a `num_samples`-shot B into the
  /// leading words of `block` (a num_rows() x kSampleShardBits scratch
  /// matrix, fully overwritten): word w of row r is word
  /// shard*kSampleShardWords + w of the run's B row r, with the bits past
  /// `num_samples` cleared. Deterministic in `seed`; each shard draws
  /// from its own stream, so any thread count gives the same B.
  void generate_shard_block(std::size_t shard, std::size_t num_samples,
                            std::uint64_t seed, BitMatrix& block) const;

  /// Symbol-major shard pass: computes global shard `shard` of M·B into
  /// the leading words of `out` (a `targets.num_outputs()` x
  /// kSampleShardBits scratch matrix, fully overwritten) without
  /// materializing B; `targets` is Mᵀ, with M's columns indexing this
  /// sampler's rows. Bit-identical to generate_shard_block followed by
  /// M.multiply_word_range. Thread-safe for distinct `out`s.
  void scatter_shard_block(std::size_t shard, std::size_t num_samples,
                           std::uint64_t seed, const ScatterTargets& targets,
                           BitMatrix& out) const;

  const std::vector<std::uint32_t>& used_symbols() const {
    return used_symbols_;
  }

 private:
  /// The one walk over the active groups of a `words`-word shard, in
  /// group order with the shard's draws; `Deposit` decides where each
  /// group's bits go (see symbol_value_sampler.cpp).
  template <typename Deposit>
  void walk_groups(std::size_t words, Rng& rng, Deposit& deposit) const;

  const SymbolTable& table_;
  std::vector<std::uint32_t> used_symbols_;
  // symbol id -> row index + 1 (0 = unused). Sized to max used + 1.
  std::vector<std::uint32_t> row_lookup_;
  // Group indices that contain at least one used symbol, ascending.
  std::vector<std::uint32_t> active_groups_;
  // Noise-generation plan per group index (identity for non-random
  // groups); compiled once so shard fills skip the per-call strategy and
  // log1p setup.
  std::vector<BiasedBitPlan> group_plans_;
};

}  // namespace symphase
