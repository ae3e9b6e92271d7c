#pragma once

/// \file symphase_sampler.hpp
/// Algorithm 1's Sampling step: measurement samples as an F2 matrix
/// product M_samples = M · B (paper Eq. (4)).
///
/// Built from a compiled circuit's measurement expressions. Two multiply
/// strategies are provided:
///   - kSparse (default): the product over the sparse expression rows.
///     The shard path (sample_shard_block, behind every session and CLI
///     run) is symbol-major and never builds B: it walks the symbol
///     groups and sends each group's bits through Mᵀ into the output
///     rows that read them — a single bit flip per noise event and
///     output row for sparse noise, a 128-word row XOR otherwise (see
///     SymbolValueSampler::scatter_shard_block and docs/performance.md).
///     sample() still materializes B and XOR-accumulates the B rows
///     named by each expression, O(nnz · n_smp / 64): the reference
///     the shard path is pinned against;
///   - kDense: materialize M densely and use the dense F2 product — the
///     §3.2.3 ablation point.
/// Results come back measurement-major: row k of the output is
/// measurement k across all shots, matching Eq. (4)'s column-per-sample
/// convention (transposed storage).

#include <cstdint>
#include <vector>

#include "bitvec/bit_matrix.hpp"
#include "bitvec/sparse_bit_matrix.hpp"
#include "sampler/symbol_value_sampler.hpp"
#include "symbolic/symphase_compiler.hpp"

namespace symphase {

enum class MultiplyStrategy { kSparse, kDense };

class SymPhaseSampler {
 public:
  /// Consumes a compiled circuit's expressions and symbol table. The
  /// SymbolTable reference must outlive the sampler (the facade in
  /// core/symphase.hpp owns both).
  SymPhaseSampler(const SymbolTable& symbols,
                  const std::vector<MeasurementExpression>& expressions,
                  MultiplyStrategy strategy = MultiplyStrategy::kSparse);

  std::size_t num_measurements() const { return expr_matrix_.rows(); }
  std::size_t num_used_symbols() const { return values_.num_rows(); }
  MultiplyStrategy strategy() const { return strategy_; }

  /// Generates `num_samples` joint samples of all measurements.
  /// Output: num_measurements x num_samples bit-matrix (row = one
  /// measurement across shots). Materializes the whole B, then runs the
  /// M·B product; both are shot-sharded across worker threads, and the
  /// result is deterministic in `seed` and independent of `num_threads`
  /// (0 = hardware concurrency).
  BitMatrix sample(std::size_t num_samples, std::uint64_t seed,
                   std::size_t num_threads = 0) const;

  /// Streaming building block: computes global shard `shard` of the
  /// sample(num_samples, seed, ·) matrix into the leading words of
  /// `block` (num_measurements() x kSampleShardBits scratch, fully
  /// overwritten). Concatenating the blocks for shards 0..num_sample_shards
  /// reproduces sample() bit-for-bit; see docs/api.md. Thread-safe for
  /// distinct `block`s. kSparse scatters through Mᵀ without a B block.
  void sample_shard_block(std::size_t shard, std::size_t num_samples,
                          std::uint64_t seed, BitMatrix& block) const;

  /// Exact probability that measurement k reads 1, computed from the
  /// symbolic expression (independent groups combined exactly).
  /// O(expression length); used by tests and the examples.
  double outcome_probability(std::size_t k) const;

 private:
  static std::vector<std::uint32_t> collect_used_symbols(
      const std::vector<MeasurementExpression>& expressions);

  MultiplyStrategy strategy_;
  SymbolValueSampler values_;
  /// Expressions with symbol ids remapped to B-row indices.
  SparseBitMatrix expr_matrix_;
  /// Mᵀ (kSparse only): the output rows that read each B row.
  ScatterTargets expr_transpose_;
  /// Dense M (kDense strategy only): materialized once instead of per
  /// sample() call so the shard-streamed path can reuse it.
  BitMatrix dense_matrix_;
  const SymbolTable& symbols_;
  /// Original symbol ids per expression (for probability queries).
  std::vector<std::vector<std::uint32_t>> raw_expressions_;
};

}  // namespace symphase
