#pragma once

/// \file symbol_table.hpp
/// Bit-symbols and their sampling distributions (paper §3.1).
///
/// Phase symbolization introduces one F2 symbol per independent random
/// bit in the circuit, in groups that are sampled independently:
///   - a fair coin per *random* computational-basis measurement,
///   - one fault group per noise-channel site: with probability p, a
///     uniform non-identity pattern over its members, else all zero. The
///     gate table (circuit/gate.hpp) gives each channel its member count
///     and what each member flips: X/Y/Z_ERROR mint one member (a
///     Bernoulli(p) bit, which draws no pattern), DEPOLARIZE1 two
///     (X^{s1}Z^{s2}, the 3 patterns at p/3 each) and DEPOLARIZE2 four
///     (X^{s1}Z^{s2} ⊗ X^{s3}Z^{s4}, the 15 patterns at p/15 each).
/// Symbol 0 is the constant 1 (the paper's s_0) and always samples to 1.
///
/// Symbol ids coincide with the phase-column indices of the symbolic
/// tableau; SymPhaseCompiler keeps the two allocators in lockstep.

#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace symphase {

enum class SymbolGroupKind : std::uint8_t {
  kConstant,  // symbol 0; always 1
  kCoin,      // fair coin from a random measurement
  kFault,     // p: a uniform non-identity pattern over the members
};

struct SymbolGroup {
  SymbolGroupKind kind = SymbolGroupKind::kConstant;
  double probability = 0.0;       // 1/2 for a coin, channel p for a fault
  std::uint32_t first_symbol = 0; // id of the group's first symbol
  std::uint32_t num_symbols = 1;

  /// Probability that the XOR of any non-empty set of the group's members
  /// reads 1: a set has odd overlap with 2^(m-1) of the 2^m - 1
  /// non-identity patterns over m members (p itself for one member).
  double flip_probability() const {
    const auto half = static_cast<double>(1u << (num_symbols - 1));
    return probability * half / (2 * half - 1);
  }

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

  /// A fault group of `members` consecutive symbols (1 to 4); returns the
  /// first.
  std::uint32_t add_fault(double p, std::uint32_t members) {
    SYMPHASE_CHECK(members >= 1 && members <= 4);
    return add_group(SymbolGroupKind::kFault, p, members);
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
