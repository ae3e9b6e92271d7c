#include "symbolic/symbol_table.hpp"

#include <gtest/gtest.h>

namespace symphase {
namespace {

TEST(SymbolTable, StartsWithConstant) {
  SymbolTable t;
  EXPECT_EQ(t.num_symbols(), 1u);
  EXPECT_EQ(t.group_of(0).kind, SymbolGroupKind::kConstant);
  EXPECT_EQ(t.groups().size(), 1u);
}

TEST(SymbolTable, SequentialIds) {
  SymbolTable t;
  EXPECT_EQ(t.add_coin(), 1u);
  EXPECT_EQ(t.add_fault(0.1, 1), 2u);
  EXPECT_EQ(t.add_fault(0.2, 2), 3u);  // occupies 3,4
  EXPECT_EQ(t.add_fault(0.3, 4), 5u);  // occupies 5..8
  EXPECT_EQ(t.add_coin(), 9u);
  EXPECT_EQ(t.num_symbols(), 10u);
}

TEST(SymbolTable, GroupLookup) {
  SymbolTable t;
  t.add_coin();                       // 1
  const auto d1 = t.add_fault(0.25, 2);  // 2,3
  const auto d2 = t.add_fault(0.5, 4);   // 4..7
  EXPECT_EQ(t.group_of(1).kind, SymbolGroupKind::kCoin);
  EXPECT_DOUBLE_EQ(t.group_of(1).probability, 0.5);
  for (std::uint32_t s = d1; s < d1 + 2; ++s) {
    EXPECT_EQ(t.group_of(s).kind, SymbolGroupKind::kFault);
    EXPECT_EQ(t.group_of(s).first_symbol, d1);
    EXPECT_EQ(t.group_of(s).num_symbols, 2u);
    EXPECT_DOUBLE_EQ(t.group_of(s).probability, 0.25);
  }
  for (std::uint32_t s = d2; s < d2 + 4; ++s) {
    EXPECT_EQ(t.group_of(s).kind, SymbolGroupKind::kFault);
    EXPECT_EQ(t.group_of(s).first_symbol, d2);
    EXPECT_EQ(t.group_of(s).num_symbols, 4u);
  }
  EXPECT_NE(t.group_index_of(d1), t.group_index_of(d2));
  EXPECT_EQ(t.group_index_of(d1), t.group_index_of(d1 + 1));
}

TEST(SymbolTable, BernoulliKeepsProbability) {
  SymbolTable t;
  const auto s = t.add_fault(0.125, 1);
  EXPECT_EQ(t.group_of(s).kind, SymbolGroupKind::kFault);
  EXPECT_DOUBLE_EQ(t.group_of(s).probability, 0.125);
  EXPECT_EQ(t.group_of(s).num_symbols, 1u);
}

TEST(SymbolTable, FlipProbabilityOfAnyMemberSet) {
  // A non-empty member set has odd overlap with 2^(m-1) of the 2^m - 1
  // non-identity patterns; a coin flips with probability 1/2.
  SymbolTable t;
  const auto coin = t.add_coin();
  const auto site = t.add_fault(0.3, 1);
  const auto pair = t.add_fault(0.3, 2);
  const auto quad = t.add_fault(0.3, 4);
  EXPECT_EQ(t.group_of(coin).flip_probability(), 0.5);
  EXPECT_EQ(t.group_of(site).flip_probability(), 0.3);
  EXPECT_DOUBLE_EQ(t.group_of(pair).flip_probability(), 0.3 * 2 / 3);
  EXPECT_DOUBLE_EQ(t.group_of(quad).flip_probability(), 0.3 * 8 / 15);
}

TEST(SymbolTable, FaultGroupsHoldOneToFourMembers) {
  SymbolTable t;
  EXPECT_THROW(t.add_fault(0.1, 0), std::invalid_argument);
  EXPECT_THROW(t.add_fault(0.1, 5), std::invalid_argument);
  EXPECT_EQ(t.num_symbols(), 1u);
}

}  // namespace
}  // namespace symphase
