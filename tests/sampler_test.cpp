// Unit tests for symbol-value generation and the Eq. (4) sampling
// product, including exact-probability checks against
// outcome_probability.

#include "sampler/symphase_sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/generators.hpp"
#include "circuit/parser.hpp"
#include "reference_sampler.hpp"
#include "sampler/symbol_value_sampler.hpp"

namespace symphase {
namespace {

double row_mean(const BitMatrix& m, std::size_t row, std::size_t cols) {
  std::size_t ones = 0;
  for (std::size_t w = 0; w < words_for_bits(cols); ++w) {
    ones += static_cast<std::size_t>(popcount(m.row(row)[w]));
  }
  return static_cast<double>(ones) / static_cast<double>(cols);
}

TEST(SymbolValueSampler, ConstantRowIsAllOnes) {
  SymbolTable table;
  SymbolValueSampler sampler(table, {0});
  const BitMatrix b = generate_b(sampler, 100, 1);
  ASSERT_EQ(b.rows(), 1u);
  EXPECT_DOUBLE_EQ(row_mean(b, 0, 100), 1.0);
}

TEST(SymbolValueSampler, CoinRowIsBalanced) {
  SymbolTable table;
  const auto s = table.add_coin();
  SymbolValueSampler sampler(table, {s});
  constexpr std::size_t kShots = 64000;
  const BitMatrix b = generate_b(sampler, kShots, 2);
  EXPECT_NEAR(row_mean(b, 0, kShots), 0.5, 5 * std::sqrt(0.25 / kShots));
}

TEST(SymbolValueSampler, BernoulliRate) {
  SymbolTable table;
  const auto s = table.add_fault(0.05, 1);
  SymbolValueSampler sampler(table, {s});
  constexpr std::size_t kShots = 100000;
  const BitMatrix b = generate_b(sampler, kShots, 3);
  EXPECT_NEAR(row_mean(b, 0, kShots), 0.05,
              5 * std::sqrt(0.05 * 0.95 / kShots));
}

TEST(SymbolValueSampler, Depolarize1JointDistribution) {
  SymbolTable table;
  const auto s = table.add_fault(0.3, 2);
  SymbolValueSampler sampler(table, {s, s + 1});
  constexpr std::size_t kShots = 200000;
  const BitMatrix b = generate_b(sampler, kShots, 4);
  // Count joint patterns.
  std::size_t counts[4] = {};
  for (std::size_t j = 0; j < kShots; ++j) {
    const int pattern = (b.get(0, j) ? 1 : 0) | (b.get(1, j) ? 2 : 0);
    ++counts[pattern];
  }
  const double expected[4] = {0.7, 0.1, 0.1, 0.1};
  for (int p = 0; p < 4; ++p) {
    const double sigma =
        std::sqrt(kShots * expected[p] * (1 - expected[p]));
    EXPECT_NEAR(counts[p], kShots * expected[p], 5 * sigma) << "pattern " << p;
  }
}

TEST(SymbolValueSampler, Depolarize2UniformOverFifteen) {
  SymbolTable table;
  const auto s = table.add_fault(0.75, 4);
  SymbolValueSampler sampler(table, {s, s + 1, s + 2, s + 3});
  constexpr std::size_t kShots = 150000;
  const BitMatrix b = generate_b(sampler, kShots, 5);
  std::size_t counts[16] = {};
  for (std::size_t j = 0; j < kShots; ++j) {
    int pattern = 0;
    for (int m = 0; m < 4; ++m) {
      pattern |= (b.get(static_cast<std::size_t>(m), j) ? 1 : 0) << m;
    }
    ++counts[pattern];
  }
  EXPECT_NEAR(counts[0], kShots * 0.25, 5 * std::sqrt(kShots * 0.25 * 0.75));
  for (int p = 1; p < 16; ++p) {
    const double e = 0.75 / 15;
    EXPECT_NEAR(counts[p], kShots * e, 5 * std::sqrt(kShots * e * (1 - e)))
        << "pattern " << p;
  }
}

TEST(SymbolValueSampler, UnusedGroupMembersSkipped) {
  SymbolTable table;
  const auto s = table.add_fault(0.2, 2);  // symbols 1,2
  // Only the X component used.
  SymbolValueSampler sampler(table, {s});
  EXPECT_EQ(sampler.num_rows(), 1u);
  const BitMatrix b = generate_b(sampler, 50000, 6);
  // Marginal of the X component: P(X or Y) = 2p/3.
  EXPECT_NEAR(row_mean(b, 0, 50000), 2.0 * 0.2 / 3,
              5 * std::sqrt(0.2 * (1 - 0.2) / 50000) + 0.005);
}

TEST(SymbolValueSampler, DeterministicInSeed) {
  SymbolTable table;
  table.add_coin();
  table.add_fault(0.1, 1);
  table.add_fault(0.05, 2);
  SymbolValueSampler sampler(table, {0, 1, 2, 3, 4});
  EXPECT_EQ(generate_b(sampler, 1000, 7), generate_b(sampler, 1000, 7));
}

TEST(SymbolValueSampler, RowLookupValidation) {
  SymbolTable table;
  table.add_coin();
  table.add_coin();
  SymbolValueSampler sampler(table, {2});
  EXPECT_EQ(sampler.row_of(2), 0u);
  EXPECT_THROW(sampler.row_of(1), std::invalid_argument);
}

// --- End-to-end sampling through expressions ------------------------

TEST(SymPhaseSampling, ConstantExpressions) {
  SymbolTable table;
  std::vector<MeasurementExpression> exprs = {
      {{}, false},    // always 0
      {{0}, false},   // always 1
  };
  SymPhaseSampler sampler(table, exprs);
  const BitMatrix samples = stream_shards(sampler, 130, 1);
  EXPECT_DOUBLE_EQ(row_mean(samples, 0, 130), 0.0);
  EXPECT_DOUBLE_EQ(row_mean(samples, 1, 130), 1.0);
}

TEST(SymPhaseSampling, XorOfTwoBernoullis) {
  SymbolTable table;
  const auto s1 = table.add_fault(0.2, 1);
  const auto s2 = table.add_fault(0.3, 1);
  std::vector<MeasurementExpression> exprs = {{{s1, s2}, false}};
  SymPhaseSampler sampler(table, exprs);
  const double expected = 0.2 * 0.7 + 0.8 * 0.3;
  EXPECT_NEAR(outcome_probability(table, exprs[0].symbols), expected, 1e-12);
  constexpr std::size_t kShots = 100000;
  const BitMatrix samples = stream_shards(sampler, kShots, 2);
  EXPECT_NEAR(row_mean(samples, 0, kShots), expected,
              5 * std::sqrt(expected * (1 - expected) / kShots));
}

TEST(SymPhaseSampling, ShardPathAndReferenceAgreeExactly) {
  SymbolTable table;
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(table.add_fault(0.1 + 0.05 * i, 1));
  }
  std::vector<MeasurementExpression> exprs;
  exprs.push_back({{ids[0], ids[3], ids[7]}, false});
  exprs.push_back({{0, ids[1]}, false});
  exprs.push_back({{}, false});
  exprs.push_back({{ids[9]}, true});
  SymPhaseSampler sampler(table, exprs);
  EXPECT_EQ(stream_shards(sampler, 4096, 3),
            ReferenceSampler(table, exprs).sample(4096, 3));
}

TEST(OutcomeProbability, CoinDominates) {
  SymbolTable table;
  const auto c = table.add_coin();
  const auto b = table.add_fault(0.01, 1);
  EXPECT_DOUBLE_EQ(outcome_probability(table, {c, b}), 0.5);
}

TEST(OutcomeProbability, ConstantInverts) {
  SymbolTable table;
  const auto b = table.add_fault(0.1, 1);
  EXPECT_NEAR(outcome_probability(table, {0, b}), 0.9, 1e-12);
}

TEST(OutcomeProbability, DepolarizePairParity) {
  // Expression = s_x ^ s_z of one DEPOLARIZE1(p): parity is 1 for X or Z
  // patterns (10, 01), 0 for I and Y (00, 11) -> P = 2p/3.
  SymbolTable table;
  const auto s = table.add_fault(0.3, 2);
  EXPECT_NEAR(outcome_probability(table, {s, s + 1}), 0.2, 1e-12);
}

}  // namespace
}  // namespace symphase
