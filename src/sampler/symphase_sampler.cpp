#include "sampler/symphase_sampler.hpp"

#include <bit>
#include <initializer_list>

namespace symphase {

namespace {

using ExpressionParts =
    std::initializer_list<std::span<const MeasurementExpression>>;

/// The symbols any expression reads, ascending: one mark pass over the
/// table's symbols.
std::vector<std::uint32_t> used_symbols(const SymbolTable& symbols,
                                        ExpressionParts parts) {
  std::vector<std::uint8_t> marked(symbols.num_symbols(), 0);
  for (const std::span<const MeasurementExpression> part : parts) {
    for (const MeasurementExpression& e : part) {
      // Expressions are sorted, so the last id bounds them all.
      SYMPHASE_CHECK(e.symbols.empty() || e.symbols.back() < marked.size());
      for (const std::uint32_t s : e.symbols) {
        marked[s] = 1;
      }
    }
  }
  std::vector<std::uint32_t> used;
  for (std::size_t s = 0; s < marked.size(); ++s) {
    if (marked[s] != 0) {
      used.push_back(static_cast<std::uint32_t>(s));
    }
  }
  return used;
}

}  // namespace

SymPhaseSampler::SymPhaseSampler(const SymbolTable& symbols,
                                 std::span<const MeasurementExpression> head,
                                 std::span<const MeasurementExpression> tail)
    : values_(symbols, used_symbols(symbols, {head, tail})),
      targets_(head.size() + tail.size(), values_.num_rows(),
               [&](const auto& visit) {
                 std::uint32_t k = 0;
                 for (const std::span<const MeasurementExpression> part :
                      {head, tail}) {
                   for (const MeasurementExpression& e : part) {
                     for (const std::uint32_t s : e.symbols) {
                       visit(k, values_.row_of(s));
                     }
                     ++k;
                   }
                 }
               }) {}

void SymPhaseSampler::sample_shard_block(std::size_t shard,
                                         std::size_t num_samples,
                                         std::uint64_t seed,
                                         BitMatrix& block) const {
  SYMPHASE_CHECK(block.rows() == num_measurements());
  values_.scatter_shard_block(shard, num_samples, seed, targets_, block);
}

double outcome_probability(const SymbolTable& symbols,
                           const std::vector<std::uint32_t>& expr) {
  // E[(-1)^m] = prod over groups of E[(-1)^{parity of included members}];
  // groups are mutually independent.
  double bias = 1.0;
  bool constant = false;
  std::size_t i = 0;
  while (i < expr.size()) {
    const SymbolGroup& group = symbols.group_of(expr[i]);
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
