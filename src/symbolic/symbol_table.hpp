#pragma once

/// \file symbol_table.hpp
/// Bit-symbols and their sampling distributions (paper §3.1).
///
/// Phase symbolization introduces one F2 symbol per independent random
/// bit in the circuit:
///   - a fair coin per *random* computational-basis measurement,
///   - one Bernoulli(p) bit per X/Y/Z_ERROR site,
///   - correlated groups for depolarization: DEPOLARIZE1(p) is X^{s1}Z^{s2}
///     with (s1 s2) ~ {00:1-p, 10:p/3, 01:p/3, 11:p/3}; DEPOLARIZE2(p) is
///     X^{s1}Z^{s2} ⊗ X^{s3}Z^{s4} with the 15 non-identity patterns at
///     p/15 each.
/// Symbol 0 is the constant 1 (the paper's s_0) and always samples to 1.
///
/// Symbol ids coincide with the phase-column indices of the symbolic
/// tableau; SymPhaseCompiler keeps the two allocators in lockstep.

#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace symphase {

enum class SymbolGroupKind : std::uint8_t {
  kConstant,     // symbol 0; always 1
  kCoin,         // fair coin from a random measurement
  kBernoulli,    // independent Bernoulli(p) fault bit
  kDepolarize1,  // 2 correlated bits
  kDepolarize2,  // 4 correlated bits
};

struct SymbolGroup {
  SymbolGroupKind kind = SymbolGroupKind::kConstant;
  double probability = 0.0;       // channel parameter p (unused for coins)
  std::uint32_t first_symbol = 0; // id of the group's first symbol
  std::uint32_t num_symbols = 1;

  bool operator==(const SymbolGroup&) const = default;
};

class SymbolTable {
 public:
  SymbolTable() {
    groups_.push_back({SymbolGroupKind::kConstant, 0.0, 0, 1});
    symbol_group_.push_back(0);
  }

  /// Total symbol count including the constant symbol 0.
  std::size_t num_symbols() const { return symbol_group_.size(); }

  const std::vector<SymbolGroup>& groups() const { return groups_; }

  const SymbolGroup& group_of(std::uint32_t symbol) const {
    SYMPHASE_ASSERT(symbol < symbol_group_.size());
    return groups_[symbol_group_[symbol]];
  }

  std::uint32_t group_index_of(std::uint32_t symbol) const {
    SYMPHASE_ASSERT(symbol < symbol_group_.size());
    return symbol_group_[symbol];
  }

  std::uint32_t add_coin() {
    return add_group(SymbolGroupKind::kCoin, 0.5, 1);
  }

  std::uint32_t add_bernoulli(double p) {
    return add_group(SymbolGroupKind::kBernoulli, p, 1);
  }

  /// Returns the first of 2 consecutive symbols (X component, Z component).
  std::uint32_t add_depolarize1(double p) {
    return add_group(SymbolGroupKind::kDepolarize1, p, 2);
  }

  /// Returns the first of 4 consecutive symbols
  /// (X_a, Z_a, X_b, Z_b components).
  std::uint32_t add_depolarize2(double p) {
    return add_group(SymbolGroupKind::kDepolarize2, p, 4);
  }

 private:
  std::uint32_t add_group(SymbolGroupKind kind, double p,
                          std::uint32_t count) {
    const auto first = static_cast<std::uint32_t>(symbol_group_.size());
    groups_.push_back({kind, p, first, count});
    const auto gi = static_cast<std::uint32_t>(groups_.size() - 1);
    for (std::uint32_t k = 0; k < count; ++k) {
      symbol_group_.push_back(gi);
    }
    return first;
  }

  std::vector<SymbolGroup> groups_;
  std::vector<std::uint32_t> symbol_group_;  // symbol id -> group index
};

}  // namespace symphase
