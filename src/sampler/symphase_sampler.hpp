#pragma once

/// \file symphase_sampler.hpp
/// Algorithm 1's Sampling step for one record: shards of M · B (paper
/// Eq. (4)), where the rows of M are the record's expressions.
///
/// A SymPhaseSampler holds only what its shard path reads: a
/// SymbolValueSampler over the symbols the expressions use, planned
/// once against Mᵀ, and Mᵀ as ScatterTargets. The shard path is
/// symbol-major and never builds B: it walks the symbol groups and
/// sends each group's bits through Mᵀ into the output rows that read
/// them — a single bit flip per noise event and output row for sparse
/// noise, otherwise a 128-word row store into the rows an expression's
/// lowest symbol reaches first and a row XOR into the rest (see
/// SymbolValueSampler::scatter_shard_block and docs/performance.md).
/// Its bits equal generate_shard_block followed
/// by SparseBitMatrix::multiply_word_range, the reference the tests pin
/// it against. Results come back measurement-major: row k of a block is
/// expression k across the shard's shots, matching Eq. (4)'s
/// column-per-sample convention (transposed storage).
///
/// The exact marginal of one expression needs no sampler:
/// outcome_probability reads the expression and the symbol table.

#include <cstdint>
#include <span>
#include <vector>

#include "bitvec/bit_matrix.hpp"
#include "sampler/symbol_value_sampler.hpp"
#include "symbolic/symphase_compiler.hpp"

namespace symphase {

class SymPhaseSampler {
 public:
  /// Samples the record whose rows are `head`'s expressions followed by
  /// `tail`'s (a detection record: detectors, then observables). The
  /// SymbolTable must outlive the sampler (CompiledSampler owns both);
  /// the expressions are read only here.
  SymPhaseSampler(const SymbolTable& symbols,
                  std::span<const MeasurementExpression> head,
                  std::span<const MeasurementExpression> tail = {});

  std::size_t num_measurements() const { return targets_.num_outputs(); }

  /// Computes global shard `shard` of a `num_samples`-shot run into the
  /// leading words of `block` (num_measurements() x kSampleShardBits
  /// scratch, fully overwritten). Concatenating the blocks for shards
  /// 0..num_sample_shards gives the whole run; see docs/api.md.
  /// Thread-safe for distinct `block`s.
  void sample_shard_block(std::size_t shard, std::size_t num_samples,
                          std::uint64_t seed, BitMatrix& block) const;

 private:
  SymbolValueSampler values_;
  /// Mᵀ: the output rows that read each B row.
  ScatterTargets targets_;
};

/// Exact probability that the XOR of `expression`'s symbols (sorted ids
/// of `symbols`) reads 1; independent groups are combined exactly.
/// O(expression length).
double outcome_probability(const SymbolTable& symbols,
                           const std::vector<std::uint32_t>& expression);

}  // namespace symphase
