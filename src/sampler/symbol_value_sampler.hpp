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
///     Mᵀ); a cost model picks that path per group (docs/performance.md).
///     Every other group is filled into output rows and copied or XORed
///     from there: the walk visits B rows in ascending order, so the
///     first deposit into an output row comes from its expression's
///     lowest B row, and that deposit stores. A member is filled straight
///     into the first output row it reaches first (into a scratch row if
///     it reaches none), then copied into its other such rows and XORed
///     into the rest. So a full shard zeroes only the rows no store
///     reaches: empty expressions, and rows whose lowest B row belongs
///     to an event group. Since M·B is linear over F2 and no bit of B
///     changes, the output is M·B bit for bit.
///
/// What a walk reads about each group (B rows, noise plan, kind, path)
/// is decided once per sampler, in one compact record per group with a
/// used symbol.
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

/// Mᵀ, stored compressed for the scatter: for each B row, the output
/// rows (rows of M) whose expressions read it. Built once per sampler;
/// two flat arrays plus a count per B row, so a build costs no per-row
/// allocation and a lookup touches contiguous memory.
///
/// A B row's readers come in two runs. First the rows whose expression
/// reads it as its lowest B row: the shard walk visits B rows in
/// ascending order, so this is the row's first deposit, which stores
/// instead of XORing. Then the rest, ascending.
class ScatterTargets {
 public:
  /// Transposes the `num_outputs` x `num_b_rows` matrix M by a counting
  /// sort. `for_each_entry(f)` must call f(k, b_row) for every entry of
  /// M with the output row k non-decreasing and, within one k, b_row
  /// ascending (expressions are sorted); it is called twice (count, then
  /// place).
  template <typename ForEachEntry>
  ScatterTargets(std::size_t num_outputs, std::size_t num_b_rows,
                 ForEachEntry&& for_each_entry)
      : num_outputs_(num_outputs),
        offsets_(num_b_rows + 1, 0),
        firsts_(num_b_rows, 0) {
    SYMPHASE_CHECK(num_outputs < UINT32_MAX);
    std::uint32_t last_k = UINT32_MAX;
    std::uint32_t last_row = 0;
    for_each_entry([&](std::uint32_t k, std::uint32_t b_row) {
      SYMPHASE_ASSERT(b_row < num_b_rows);
      SYMPHASE_CHECK(k != last_k || b_row > last_row);
      ++offsets_[b_row + 1];
      if (k != last_k) {
        ++firsts_[b_row];
      }
      last_k = k;
      last_row = b_row;
    });
    std::size_t total = 0;
    for (std::size_t r = 0; r < num_b_rows; ++r) {
      total += offsets_[r + 1];
      SYMPHASE_CHECK(total <= UINT32_MAX);
      offsets_[r + 1] = static_cast<std::uint32_t>(total);
    }
    rows_.resize(total);
    std::vector<std::uint32_t> next_first(offsets_.begin(),
                                          offsets_.end() - 1);
    std::vector<std::uint32_t> next_later(num_b_rows);
    for (std::size_t r = 0; r < num_b_rows; ++r) {
      next_later[r] = offsets_[r] + firsts_[r];
    }
    last_k = UINT32_MAX;
    for_each_entry([&](std::uint32_t k, std::uint32_t b_row) {
      rows_[k != last_k ? next_first[b_row]++ : next_later[b_row]++] = k;
      last_k = k;
    });
  }

  std::size_t num_b_rows() const { return firsts_.size(); }
  std::size_t num_outputs() const { return num_outputs_; }

  /// Every output row that reads B row `b_row`.
  std::span<const std::uint32_t> readers(std::uint32_t b_row) const {
    SYMPHASE_ASSERT(b_row < firsts_.size());
    return {rows_.data() + offsets_[b_row],
            offsets_[b_row + 1] - offsets_[b_row]};
  }

  /// The output rows whose lowest B row is `b_row`: the first run of
  /// readers(b_row).
  std::span<const std::uint32_t> first_readers(std::uint32_t b_row) const {
    return readers(b_row).first(firsts_[b_row]);
  }

  /// The other readers of `b_row`, which an earlier B row reached first.
  std::span<const std::uint32_t> later_readers(std::uint32_t b_row) const {
    return readers(b_row).subspan(firsts_[b_row]);
  }

 private:
  std::size_t num_outputs_;
  std::vector<std::uint32_t> offsets_;  // num_b_rows() + 1 entries
  std::vector<std::uint32_t> firsts_;   // first-run length per B row
  std::vector<std::uint32_t> rows_;
};

class SymbolValueSampler {
 public:
  /// `used_symbols` must be sorted and duplicate-free (symbol ids,
  /// including 0 if any expression has a constant term).
  SymbolValueSampler(const SymbolTable& table,
                     const std::vector<std::uint32_t>& used_symbols);

  /// Number of materialized B rows.
  std::size_t num_rows() const { return num_rows_; }

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

  /// Fixes how scatter_shard_block sends each group through `targets`
  /// (Mᵀ, with M's columns indexing this sampler's rows): which groups
  /// hand their events to the output rows one bit at a time, and which
  /// output rows no store reaches, the only rows a full shard zeroes.
  /// Called once, before any scatter_shard_block.
  void plan_scatter(const ScatterTargets& targets);

  /// Symbol-major shard pass: computes global shard `shard` of M·B into
  /// the leading words of `out` (a `targets.num_outputs()` x
  /// kSampleShardBits scratch matrix, fully overwritten) without
  /// materializing B; `targets` is the Mᵀ plan_scatter was given. Each
  /// output row is stored by its first deposit and XORed by the rest.
  /// Bit-identical to generate_shard_block followed by
  /// M.multiply_word_range. Thread-safe for distinct `out`s.
  void scatter_shard_block(std::size_t shard, std::size_t num_samples,
                           std::uint64_t seed, const ScatterTargets& targets,
                           BitMatrix& out) const;

 private:
  static constexpr std::uint32_t kNoRow = UINT32_MAX;

  /// One group with at least one used symbol, decided once per sampler:
  /// everything a shard's walk reads about it.
  struct GroupRecord {
    // B row of each member, or kNoRow for an unused member.
    std::uint32_t b_rows[4] = {kNoRow, kNoRow, kNoRow, kNoRow};
    std::uint32_t group = 0;  // index in the symbol table
    std::uint32_t plan = 0;   // index in plans_: a fault's Bernoulli(p)
    SymbolGroupKind kind = SymbolGroupKind::kConstant;
    std::uint8_t members = 1;
    // Scatter only (set by plan_scatter): whether the group's events are
    // flipped into the output rows one bit at a time, and which used
    // members (bit k: member k) have so few readers that their flips are
    // masked by the pattern bit instead of branched on.
    bool events = false;
    std::uint8_t light = 0;
  };
  static_assert(sizeof(GroupRecord) == 28);

  /// The one walk over the groups of a `words`-word shard, in group
  /// order with the shard's draws; `Deposit` decides where each group's
  /// bits go (see symbol_value_sampler.cpp).
  template <typename Deposit>
  void walk_groups(std::size_t words, Rng& rng, Deposit& deposit) const;

  const SymbolTable& table_;
  std::size_t num_rows_;
  // symbol id -> row index + 1 (0 = unused). Sized to max used + 1.
  std::vector<std::uint32_t> row_lookup_;
  // The groups with a used symbol, in group order.
  std::vector<GroupRecord> groups_;
  // One compiled noise plan per distinct fault probability (strategy
  // choice + cached constants), so shard fills skip the per-call setup;
  // plans_[0] is p = 0, the plan of constants and coins.
  std::vector<BiasedBitPlan> plans_;
  // Output rows a full scatter shard zeroes before the walk: empty
  // expressions and rows whose lowest B row's group flips events.
  std::vector<std::uint32_t> unstored_rows_;
  // The output count plan_scatter was given (none yet: SIZE_MAX).
  std::size_t planned_outputs_ = SIZE_MAX;
};

}  // namespace symphase
