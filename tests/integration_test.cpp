// End-to-end tests through the public API (core/symphase.hpp).

#include "core/symphase.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sampler/resample.hpp"
#include "tableau/col_major_tableau.hpp"
#include "tableau/row_major_tableau.hpp"

namespace symphase {
namespace {

double row_mean(const BitMatrix& m, std::size_t row, std::size_t cols) {
  std::size_t ones = 0;
  for (std::size_t w = 0; w < words_for_bits(cols); ++w) {
    ones += static_cast<std::size_t>(popcount(m.row(row)[w]));
  }
  return static_cast<double>(ones) / static_cast<double>(cols);
}

TEST(CompiledSampler, QuickstartFlow) {
  const Circuit circuit = parse_circuit(
      "H 0\n"
      "CNOT 0 1\n"
      "X_ERROR(0.1) 1\n"
      "M 0 1\n");
  const CompiledSampler sampler = CompiledSampler::compile(circuit);
  EXPECT_EQ(sampler.num_measurements(), 2u);
  EXPECT_EQ(sampler.num_symbols(), 3u);  // constant, X fault, coin
  const BitMatrix samples = sampler.sample(10000, 42);
  EXPECT_EQ(samples.rows(), 2u);
  EXPECT_EQ(samples.cols(), 10000u);
  EXPECT_NEAR(row_mean(samples, 0, 10000), 0.5, 0.03);
  EXPECT_NEAR(row_mean(samples, 1, 10000), 0.5, 0.03);
  // Disagreement rate = X error rate.
  std::size_t disagree = 0;
  for (std::size_t j = 0; j < 10000; ++j) {
    disagree += samples.get(0, j) != samples.get(1, j);
  }
  EXPECT_NEAR(disagree / 10000.0, 0.1, 0.02);
}

TEST(CompiledSampler, AllLayoutsProduceSameExpressions) {
  // compile() runs the pass on the blocked layout; the row- and
  // column-major passes must give it the same symbols and expressions,
  // hence the same samples.
  Rng rng(1);
  const Circuit c = random_fuzz_circuit(12, 300, 0.05, rng);
  const CompiledSampler blocked = CompiledSampler::compile(c);
  const SymPhaseCompiler<RowMajorTableau> row_major(c);
  const SymPhaseCompiler<ColMajorTableau> col_major(c);
  EXPECT_EQ(blocked.expressions(), row_major.expressions());
  EXPECT_EQ(blocked.expressions(), col_major.expressions());
  EXPECT_EQ(blocked.symbols().groups(), row_major.symbols().groups());
  EXPECT_EQ(blocked.symbols().groups(), col_major.symbols().groups());
}

TEST(CompiledSampler, SampleDeterministicInSeedOnly) {
  const Circuit c = figure1_circuit(0.2);
  const CompiledSampler sampler = CompiledSampler::compile(c);
  EXPECT_EQ(sampler.sample(1000, 5), sampler.sample(1000, 5));
  // Different seed gives a different (very likely) matrix.
  EXPECT_NE(sampler.sample(1000, 5), sampler.sample(1000, 6));
}

TEST(CompiledSampler, Figure1Probabilities) {
  constexpr double kP = 0.2;
  const Circuit c = figure1_circuit(kP);
  const CompiledSampler sampler = CompiledSampler::compile(c);
  ASSERT_EQ(sampler.num_measurements(), 4u);
  // m1 = s1, m2 = s2: marginal p. m3 = s2^s3, m4 = s3^s4: XOR of two.
  const double xor2 = 2 * kP * (1 - kP);
  EXPECT_NEAR(sampler.outcome_probability(0), kP, 1e-12);
  EXPECT_NEAR(sampler.outcome_probability(1), kP, 1e-12);
  EXPECT_NEAR(sampler.outcome_probability(2), xor2, 1e-12);
  EXPECT_NEAR(sampler.outcome_probability(3), xor2, 1e-12);
  // Empirical agreement.
  constexpr std::size_t kShots = 100000;
  const BitMatrix samples = sampler.sample(kShots, 11);
  for (std::size_t k = 0; k < 4; ++k) {
    const double p = sampler.outcome_probability(k);
    EXPECT_NEAR(row_mean(samples, k, kShots), p,
                5 * std::sqrt(p * (1 - p) / kShots));
  }
}

TEST(CompiledSampler, ExpressionRendering) {
  const Circuit c = figure1_circuit(0.1);
  const CompiledSampler sampler = CompiledSampler::compile(c);
  EXPECT_EQ(expression_to_string(sampler.expressions()[0]), "s1");
  EXPECT_EQ(expression_to_string(sampler.expressions()[2]), "s2 ^ s3");
  MeasurementExpression zero;
  EXPECT_EQ(expression_to_string(zero), "0");
  MeasurementExpression one;
  one.symbols = {0};
  EXPECT_EQ(expression_to_string(one), "1");
}

TEST(SampleCircuitConvenience, MatchesCompiledSampler) {
  const Circuit c = ghz_circuit(4);
  const BitMatrix via_helper = sample_circuit(c, 256, 3);
  const BitMatrix via_sampler = CompiledSampler::compile(c).sample(256, 3);
  EXPECT_EQ(via_helper, via_sampler);
}

TEST(SampleCircuitConvenience, GhzAllEqual) {
  const Circuit c = ghz_circuit(6);
  const BitMatrix samples = sample_circuit(c, 2048, 9);
  // All 6 rows identical per shot (GHZ correlations), and the first row
  // is ~50/50.
  for (std::size_t r = 1; r < 6; ++r) {
    for (std::size_t w = 0; w < words_for_bits(2048); ++w) {
      ASSERT_EQ(samples.row(r)[w], samples.row(0)[w]) << r;
    }
  }
  EXPECT_NEAR(row_mean(samples, 0, 2048), 0.5, 0.06);
}

TEST(ResimulationBaseline, AgreesOnDeterministicCircuit) {
  const Circuit c = parse_circuit("X 0\nM 0 1\nH 1\nH 1\nM 1");
  const BitMatrix re = sample_by_resimulation(c, 100, 1);
  const CompiledSampler sym = CompiledSampler::compile(c);
  const BitMatrix sp = sym.sample(100, 2);
  EXPECT_EQ(re, sp);  // all outcomes deterministic -> exact equality
}

TEST(RepetitionCode, LogicalErrorRateDropsWithDistance) {
  // Code-capacity noise: logical error (majority vote of data bits wrong)
  // must shrink as distance grows at fixed p below threshold.
  constexpr double kP = 0.08;
  constexpr std::size_t kShots = 20000;
  double previous_rate = 1.0;
  for (const std::size_t d : {3u, 5u, 7u}) {
    RepetitionCodeOptions opt;
    opt.distance = d;
    opt.rounds = 1;
    opt.data_error_probability = kP;
    const Circuit c = repetition_code_memory(opt);
    const CompiledSampler sampler = CompiledSampler::compile(c);
    const BitMatrix samples = sampler.sample(kShots, d);
    // Data measurements are the last `d` rows.
    const std::size_t first_data = sampler.num_measurements() - d;
    std::size_t logical_errors = 0;
    for (std::size_t j = 0; j < kShots; ++j) {
      std::size_t ones = 0;
      for (std::size_t k = 0; k < d; ++k) {
        ones += samples.get(first_data + k, j);
      }
      logical_errors += 2 * ones > d;
    }
    const double rate = static_cast<double>(logical_errors) / kShots;
    EXPECT_LT(rate, previous_rate * 0.9)
        << "distance " << d << " rate " << rate;
    previous_rate = rate;
  }
}

TEST(RepetitionCode, SyndromesDetectInjectedError) {
  // A deterministic X on the middle data qubit must fire exactly the two
  // adjacent syndrome bits, every shot.
  RepetitionCodeOptions opt;
  opt.distance = 5;
  opt.rounds = 1;
  Circuit c(9);
  c.append1(GateType::X, 2);
  c.append_circuit(repetition_code_memory(opt));
  const CompiledSampler sampler = CompiledSampler::compile(c);
  const BitMatrix samples = sampler.sample(64, 1);
  // Syndrome bits: ancilla i measures Z_i Z_{i+1}; X on data 2 fires
  // ancillas 1 and 2.
  const bool expected[4] = {false, true, true, false};
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_DOUBLE_EQ(row_mean(samples, k, 64), expected[k] ? 1.0 : 0.0) << k;
  }
}

TEST(CompiledSampler, EmptyAndMeasurementFreeCircuits) {
  const Circuit empty(2);
  const CompiledSampler s1 = CompiledSampler::compile(empty);
  EXPECT_EQ(s1.num_measurements(), 0u);
  const BitMatrix out = s1.sample(100, 1);
  EXPECT_EQ(out.rows(), 0u);
}

TEST(CompiledSampler, LargeSparseCircuitSampling) {
  // A wide, shallow circuit: many qubits, one layer of noise, all
  // measured. Exercises multi-word expressions and B-matrix remapping.
  Circuit c(300);
  std::vector<std::uint32_t> all;
  for (std::uint32_t q = 0; q < 300; ++q) {
    all.push_back(q);
  }
  c.append(GateType::X_ERROR, all, 0.01);
  c.append(GateType::M, all);
  const CompiledSampler sampler = CompiledSampler::compile(c);
  EXPECT_EQ(sampler.num_symbols(), 301u);
  EXPECT_EQ(sampler.expression_nnz(), 300u);
  const BitMatrix samples = sampler.sample(50000, 4);
  double total_mean = 0;
  for (std::size_t k = 0; k < 300; ++k) {
    total_mean += row_mean(samples, k, 50000);
  }
  EXPECT_NEAR(total_mean / 300, 0.01, 0.002);
}

}  // namespace
}  // namespace symphase
