#include "sampler/symphase_sampler.hpp"

#include <algorithm>

#include "common/parallel.hpp"
#include "common/simd_word.hpp"

namespace symphase {

std::vector<std::uint32_t> SymPhaseSampler::collect_used_symbols(
    const std::vector<MeasurementExpression>& expressions) {
  std::vector<std::uint32_t> used;
  for (const auto& e : expressions) {
    used.insert(used.end(), e.symbols.begin(), e.symbols.end());
  }
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  return used;
}

SymPhaseSampler::SymPhaseSampler(
    const SymbolTable& symbols,
    const std::vector<MeasurementExpression>& expressions,
    MultiplyStrategy strategy)
    : strategy_(strategy),
      values_(symbols, collect_used_symbols(expressions)),
      expr_matrix_(expressions.size(), values_.num_rows()),
      symbols_(symbols) {
  raw_expressions_.reserve(expressions.size());
  for (std::size_t k = 0; k < expressions.size(); ++k) {
    std::vector<std::uint32_t> remapped;
    remapped.reserve(expressions[k].symbols.size());
    for (const std::uint32_t s : expressions[k].symbols) {
      remapped.push_back(values_.row_of(s));
    }
    // row_of preserves order (used_symbols sorted), so remapped is sorted.
    expr_matrix_.set_row(k, std::move(remapped));
    raw_expressions_.push_back(expressions[k].symbols);
  }
  if (strategy_ == MultiplyStrategy::kDense) {
    dense_matrix_ = expr_matrix_.to_dense();
  } else {
    expr_transpose_ = ScatterTargets(expr_matrix_);
  }
}

BitMatrix SymPhaseSampler::sample(std::size_t num_samples, std::uint64_t seed,
                                  std::size_t num_threads) const {
  const std::size_t threads = resolve_thread_count(num_threads);
  const BitMatrix b = values_.generate(num_samples, seed, threads);
  if (strategy_ == MultiplyStrategy::kDense) {
    return dense_matrix_.multiply(b);
  }
  // Sparse M·B, shot-sharded: shards own disjoint word ranges of every
  // output row, so the product parallelizes without contention (and is
  // trivially independent of the thread count — no RNG involved).
  BitMatrix out(expr_matrix_.rows(), num_samples);
  const std::size_t shot_words = words_for_bits(num_samples);
  const std::size_t num_shards = ceil_div(shot_words, kSampleShardWords);
  parallel_for(num_shards, threads, [&](std::size_t shard) {
    const std::size_t word0 = shard * kSampleShardWords;
    const std::size_t words = std::min(kSampleShardWords, shot_words - word0);
    expr_matrix_.multiply_word_range(b, out, word0, words);
  });
  return out;
}

void SymPhaseSampler::sample_shard_block(std::size_t shard,
                                         std::size_t num_samples,
                                         std::uint64_t seed,
                                         BitMatrix& block) const {
  SYMPHASE_CHECK(block.rows() == num_measurements());
  if (strategy_ == MultiplyStrategy::kSparse) {
    values_.scatter_shard_block(shard, num_samples, seed, expr_transpose_,
                                block);
    return;
  }
  const ShardExtent e = sample_shard_extent(shard, num_samples);
  SYMPHASE_CHECK(block.words_per_row() >= e.words);
  BitMatrix b(values_.num_rows(), kSampleShardBits);
  values_.generate_shard_block(shard, num_samples, seed, b);
  // The dense product is column-separable, so multiplying the shard's
  // B-block alone yields exactly this word range of the full product.
  const BitMatrix prod = dense_matrix_.multiply(b);
  for (std::size_t r = 0; r < block.rows(); ++r) {
    wide::copy_words(block.row(r), prod.row(r), e.words);
  }
}

double SymPhaseSampler::outcome_probability(std::size_t k) const {
  SYMPHASE_CHECK(k < raw_expressions_.size());
  const std::vector<std::uint32_t>& expr = raw_expressions_[k];
  // E[(-1)^m] = prod over groups of E[(-1)^{parity of included members}];
  // groups are mutually independent.
  double bias = 1.0;
  bool constant = false;
  std::size_t i = 0;
  while (i < expr.size()) {
    const SymbolGroup& group = symbols_.group_of(expr[i]);
    // Collect the membership mask of this group's symbols in the expr.
    std::uint32_t mask = 0;
    while (i < expr.size() &&
           expr[i] < group.first_symbol + group.num_symbols) {
      SYMPHASE_ASSERT(expr[i] >= group.first_symbol);
      mask |= 1u << (expr[i] - group.first_symbol);
      ++i;
    }
    switch (group.kind) {
      case SymbolGroupKind::kConstant:
        constant = !constant;
        break;
      case SymbolGroupKind::kCoin:
        bias *= 0.0;
        break;
      case SymbolGroupKind::kBernoulli:
        bias *= 1.0 - 2.0 * group.probability;
        break;
      case SymbolGroupKind::kDepolarize1:
      case SymbolGroupKind::kDepolarize2: {
        const std::uint32_t members = group.num_symbols;
        const std::uint32_t patterns = 1u << members;
        const double p_each =
            group.probability / static_cast<double>(patterns - 1);
        double g_bias = 1.0 - group.probability;  // identity pattern
        for (std::uint32_t pat = 1; pat < patterns; ++pat) {
          g_bias += (std::popcount(pat & mask) % 2 == 0) ? p_each : -p_each;
        }
        bias *= g_bias;
        break;
      }
    }
  }
  const double p_one = (1.0 - bias) / 2.0;
  return constant ? 1.0 - p_one : p_one;
}

}  // namespace symphase
