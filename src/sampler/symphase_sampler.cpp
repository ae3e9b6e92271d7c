#include "sampler/symphase_sampler.hpp"

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
               }) {
  values_.plan_scatter(targets_);
}

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
  // groups are mutually independent, and whichever of a group's members
  // the expression includes, their parity is odd with the group's
  // flip_probability() (1/2 for a coin).
  double bias = 1.0;
  bool constant = false;
  std::size_t i = 0;
  while (i < expr.size()) {
    const SymbolGroup& group = symbols.group_of(expr[i]);
    while (i < expr.size() &&
           expr[i] < group.first_symbol + group.num_symbols) {
      SYMPHASE_ASSERT(expr[i] >= group.first_symbol);
      ++i;
    }
    if (group.kind == SymbolGroupKind::kConstant) {
      constant = !constant;
    } else {
      bias *= 1.0 - 2.0 * group.flip_probability();
    }
  }
  const double p_one = (1.0 - bias) / 2.0;
  return constant ? 1.0 - p_one : p_one;
}

}  // namespace symphase
