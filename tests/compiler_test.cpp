// Unit tests for the SymPhase compiler (Algorithm 1 Initialization):
// symbolic expressions on hand-checkable circuits, including the paper's
// own worked examples.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "circuit/generators.hpp"
#include "circuit/parser.hpp"
#include "circuit/surface_code.hpp"
#include "common/rng.hpp"
#include "service/digest.hpp"
#include "symbolic/symphase_compiler.hpp"

namespace symphase {
namespace {

using Expr = std::vector<std::uint32_t>;

template <typename Layout>
class CompilerTest : public ::testing::Test {};

using Layouts =
    ::testing::Types<RowMajorTableau, ColMajorTableau, BlockedTableau>;
TYPED_TEST_SUITE(CompilerTest, Layouts);

TYPED_TEST(CompilerTest, FreshQubitMeasuresConstantZero) {
  const Circuit c = parse_circuit("M 0 1");
  SymPhaseCompiler<TypeParam> compiler(c);
  ASSERT_EQ(compiler.num_measurements(), 2u);
  EXPECT_EQ(compiler.expressions()[0].symbols, Expr{});
  EXPECT_FALSE(compiler.expressions()[0].was_random);
  EXPECT_EQ(compiler.symbols().num_symbols(), 1u);  // just the constant
}

TYPED_TEST(CompilerTest, XGateGivesConstantOne) {
  const Circuit c = parse_circuit("X 0\nM 0");
  SymPhaseCompiler<TypeParam> compiler(c);
  EXPECT_EQ(compiler.expressions()[0].symbols, Expr{0});
  EXPECT_FALSE(compiler.expressions()[0].was_random);
}

TYPED_TEST(CompilerTest, XErrorGivesSymbol) {
  const Circuit c = parse_circuit("X_ERROR(0.1) 0\nM 0");
  SymPhaseCompiler<TypeParam> compiler(c);
  EXPECT_EQ(compiler.expressions()[0].symbols, Expr{1});
  EXPECT_EQ(compiler.symbols().group_of(1).kind, SymbolGroupKind::kFault);
  EXPECT_DOUBLE_EQ(compiler.symbols().group_of(1).probability, 0.1);
}

TYPED_TEST(CompilerTest, ZErrorInvisibleInZBasis) {
  const Circuit c = parse_circuit("Z_ERROR(0.3) 0\nM 0");
  SymPhaseCompiler<TypeParam> compiler(c);
  EXPECT_EQ(compiler.expressions()[0].symbols, Expr{});
}

TYPED_TEST(CompilerTest, ZErrorVisibleThroughHadamard) {
  const Circuit c = parse_circuit("H 0\nZ_ERROR(0.3) 0\nH 0\nM 0");
  SymPhaseCompiler<TypeParam> compiler(c);
  EXPECT_EQ(compiler.expressions()[0].symbols, Expr{1});
}

TYPED_TEST(CompilerTest, RandomMeasurementMintsCoin) {
  const Circuit c = parse_circuit("H 0\nM 0\nM 0");
  SymPhaseCompiler<TypeParam> compiler(c);
  ASSERT_EQ(compiler.num_measurements(), 2u);
  EXPECT_TRUE(compiler.expressions()[0].was_random);
  EXPECT_EQ(compiler.expressions()[0].symbols, Expr{1});
  EXPECT_EQ(compiler.symbols().group_of(1).kind, SymbolGroupKind::kCoin);
  // Re-measurement is deterministic and repeats the same coin.
  EXPECT_FALSE(compiler.expressions()[1].was_random);
  EXPECT_EQ(compiler.expressions()[1].symbols, Expr{1});
}

TYPED_TEST(CompilerTest, BellPairCorrelatedExpressions) {
  const Circuit c = parse_circuit("H 0\nCNOT 0 1\nM 0\nM 1");
  SymPhaseCompiler<TypeParam> compiler(c);
  EXPECT_TRUE(compiler.expressions()[0].was_random);
  EXPECT_FALSE(compiler.expressions()[1].was_random);
  // Perfectly correlated: both outcomes are the same coin.
  EXPECT_EQ(compiler.expressions()[0].symbols,
            compiler.expressions()[1].symbols);
}

// The worked example of paper §3.1: H 0; CNOT 0 1; X^{s1} 0; X^{s2} 1;
// M 0; M 1 gives m1 = s3 (fresh coin), m2 = s1 ^ s2 ^ s3.
TYPED_TEST(CompilerTest, PaperSection31WorkedExample) {
  const Circuit c = parse_circuit(
      "H 0\n"
      "CNOT 0 1\n"
      "X_ERROR(0.5) 0\n"
      "X_ERROR(0.5) 1\n"
      "M 0\n"
      "M 1");
  SymPhaseCompiler<TypeParam> compiler(c);
  ASSERT_EQ(compiler.num_measurements(), 2u);
  // Symbols: 1 = s1 (X fault on q0), 2 = s2 (X fault on q1), 3 = coin.
  EXPECT_EQ(compiler.expressions()[0].symbols, Expr{3});
  EXPECT_TRUE(compiler.expressions()[0].was_random);
  EXPECT_EQ(compiler.expressions()[1].symbols, (Expr{1, 2, 3}));
  EXPECT_FALSE(compiler.expressions()[1].was_random);
}

// Fig. 1 of the paper: m1 = s1, m2 = s2, m3 = s2^s3, m4 = s3^s4.
TYPED_TEST(CompilerTest, PaperFigure1Expressions) {
  const Circuit c = figure1_circuit(0.01);
  SymPhaseCompiler<TypeParam> compiler(c);
  ASSERT_EQ(compiler.num_measurements(), 4u);
  EXPECT_EQ(compiler.expressions()[0].symbols, Expr{1});
  EXPECT_EQ(compiler.expressions()[1].symbols, Expr{2});
  EXPECT_EQ(compiler.expressions()[2].symbols, (Expr{2, 3}));
  EXPECT_EQ(compiler.expressions()[3].symbols, (Expr{3, 4}));
  for (const auto& e : compiler.expressions()) {
    EXPECT_FALSE(e.was_random);
  }
}

TYPED_TEST(CompilerTest, Depolarize1MakesTwoSymbols) {
  const Circuit c = parse_circuit("DEPOLARIZE1(0.2) 0\nM 0");
  SymPhaseCompiler<TypeParam> compiler(c);
  // Only the X component (symbol 1) flips a Z-basis measurement.
  EXPECT_EQ(compiler.expressions()[0].symbols, Expr{1});
  EXPECT_EQ(compiler.symbols().num_symbols(), 3u);
  EXPECT_EQ(compiler.symbols().group_of(1).kind, SymbolGroupKind::kFault);
  EXPECT_EQ(compiler.symbols().group_of(1).num_symbols, 2u);
  EXPECT_EQ(compiler.symbols().group_of(2).first_symbol, 1u);
}

TYPED_TEST(CompilerTest, Depolarize2MakesFourSymbols) {
  const Circuit c = parse_circuit("DEPOLARIZE2(0.2) 0 1\nM 0 1");
  SymPhaseCompiler<TypeParam> compiler(c);
  EXPECT_EQ(compiler.expressions()[0].symbols, Expr{1});  // X_a component
  EXPECT_EQ(compiler.expressions()[1].symbols, Expr{3});  // X_b component
  EXPECT_EQ(compiler.symbols().num_symbols(), 5u);
}

TYPED_TEST(CompilerTest, YErrorSharesOneSymbol) {
  // Y = XZ: in the Z basis only the X part matters; sandwiched between
  // Hadamards only the Z part does. Same symbol either way.
  const Circuit c =
      parse_circuit("Y_ERROR(0.2) 0\nH 1\nY_ERROR(0.2) 1\nH 1\nM 0 1");
  SymPhaseCompiler<TypeParam> compiler(c);
  EXPECT_EQ(compiler.expressions()[0].symbols, Expr{1});
  EXPECT_EQ(compiler.expressions()[1].symbols, Expr{2});
  EXPECT_EQ(compiler.symbols().num_symbols(), 3u);
}

TYPED_TEST(CompilerTest, MrResetsTheQubit) {
  const Circuit c = parse_circuit("X 0\nMR 0\nM 0");
  SymPhaseCompiler<TypeParam> compiler(c);
  EXPECT_EQ(compiler.expressions()[0].symbols, Expr{0});  // reads 1
  EXPECT_EQ(compiler.expressions()[1].symbols, Expr{});   // reset to 0
}

TYPED_TEST(CompilerTest, MrAfterRandomCollapseResets) {
  const Circuit c = parse_circuit("H 0\nMR 0\nM 0");
  SymPhaseCompiler<TypeParam> compiler(c);
  EXPECT_EQ(compiler.expressions()[0].symbols, Expr{1});  // fresh coin
  EXPECT_EQ(compiler.expressions()[1].symbols, Expr{});   // reset to |0>
}

TYPED_TEST(CompilerTest, ResetClearsEntanglement) {
  const Circuit c = parse_circuit("H 0\nCNOT 0 1\nR 0\nM 0\nM 1");
  SymPhaseCompiler<TypeParam> compiler(c);
  // Qubit 0 was reset: reads 0 deterministically. Qubit 1 keeps the coin
  // minted by the reset's internal measurement.
  EXPECT_EQ(compiler.expressions()[0].symbols, Expr{});
  EXPECT_EQ(compiler.expressions()[1].symbols, Expr{1});
}

TYPED_TEST(CompilerTest, ExpressionNnzAccounting) {
  const Circuit c = figure1_circuit(0.1);
  SymPhaseCompiler<TypeParam> compiler(c);
  EXPECT_EQ(compiler.expression_nnz(), 1u + 1 + 2 + 2);
}

TYPED_TEST(CompilerTest, RepetitionCodeSyndromesAreSparse) {
  RepetitionCodeOptions opt;
  opt.distance = 5;
  opt.rounds = 4;
  opt.data_error_probability = 0.1;
  const Circuit c = repetition_code_memory(opt);
  SymPhaseCompiler<TypeParam> compiler(c);
  // All measurements deterministic (stabilizer circuit w/o superposition
  // reaching measured ancillas); expressions stay shallow because each
  // syndrome bit depends on at most (rounds x 2) data faults.
  for (const auto& e : compiler.expressions()) {
    EXPECT_FALSE(e.was_random);
    EXPECT_LE(e.symbols.size(), 2u * opt.rounds);
  }
}

TYPED_TEST(CompilerTest, EmptyCircuitCompiles) {
  const Circuit c(3);
  SymPhaseCompiler<TypeParam> compiler(c);
  EXPECT_EQ(compiler.num_measurements(), 0u);
}

// ---- Expressions pinned as digests ----------------------------------------
//
// The tests above compare small compiles with hand-derived expressions,
// and LayoutBoundary compares the layouts with each other. Neither catches
// a change to the pass that every layout shares, such as which rows carry
// phases. These digests pin whole compiles' output (every expression's
// symbols and was_random); every layout must reproduce them.

template <typename Layout>
std::string expressions_digest(const Circuit& circuit) {
  const SymPhaseCompiler<Layout> compiler(circuit);
  std::string text;
  for (const MeasurementExpression& e : compiler.expressions()) {
    text += e.was_random ? 'r' : 'd';
    for (const std::uint32_t s : e.symbols) {
      text += ' ';
      text += std::to_string(s);
    }
    text += '\n';
  }
  return fnv128_hex(text);
}

/// The paper's Fig. 3c family at n = 128 (66 phase tile-columns).
Circuit fig3c_family_circuit(std::uint64_t seed) {
  LayeredRandomCircuitOptions o;
  o.num_qubits = 128;
  o.num_layers = 128;
  o.cnot_pairs_per_layer = 0;
  o.half_n_cnot_pairs = true;
  o.depolarize_probability = 1e-3;
  Rng rng(seed);
  return layered_random_circuit(o, rng);
}

/// Random collapses followed by record-controlled Paulis, resets and
/// measure-resets, with enough noise symbols that the phase region spans
/// three tile-columns.
Circuit conditional_pauli_circuit() {
  constexpr int kQubits = 40;
  std::ostringstream text;
  for (int r = 0; r < 10; ++r) {
    for (int q = r % 3; q < kQubits; q += 3) {
      text << "H " << q << '\n';
    }
    for (int q = 0; q < kQubits; q += 2) {
      text << "CNOT " << q << ' ' << (q + 2 * r + 1) % kQubits << '\n';
    }
    text << "DEPOLARIZE1(0.01)";
    for (int q = 0; q < kQubits; ++q) {
      text << ' ' << q;
    }
    text << "\nX_ERROR(0.02)";
    for (int q = 0; q < kQubits; ++q) {
      text << ' ' << q;
    }
    text << "\nM " << r << ' ' << r + 7 << ' ' << r + 13 << ' ' << r + 21
         << '\n';
    text << "COND_X rec[-1] " << r + 3 << '\n';
    text << "COND_Z rec[-2] " << r + 5 << '\n';
    text << "COND_Y rec[-3] " << r + 9 << '\n';
    text << "COND_X rec[-4] " << r + 11 << '\n';
    text << "MR " << r + 17 << ' ' << r + 29 << '\n';
    text << "R " << r + 30 << '\n';
  }
  text << "M";
  for (int q = 0; q < kQubits; ++q) {
    text << ' ' << q;
  }
  text << '\n';
  return parse_circuit(text.str());
}

/// 513 qubits: every row spans two 512-row tile-rows.
Circuit ghz513_circuit() {
  Circuit c(513);
  c.append1(GateType::H, 0);
  for (std::uint32_t q = 0; q + 1 < 513; ++q) {
    c.append2(GateType::CNOT, q, q + 1);
  }
  c.append(GateType::X_ERROR, {512}, 0.01);
  c.append(GateType::M, {0, 256, 511, 512});
  return c;
}

TYPED_TEST(CompilerTest, ExpressionsMatchPinnedDigests) {
  SurfaceCodeOptions d5;
  d5.distance = 5;
  d5.rounds = 5;
  d5.data_depolarization = 1e-3;
  d5.gate_depolarization = 1e-3;
  d5.measurement_flip_probability = 1e-3;
  const struct {
    const char* name;
    Circuit circuit;
    const char* digest;
  } cases[] = {
      {"fig3c n=128 seed 1 (nnz 31,473)", fig3c_family_circuit(1),
       "e3e3a5b627dee2f2351e05ed6809a0b4"},
      {"fig3c n=128 seed 5 (nnz 991)", fig3c_family_circuit(5),
       "de8bde7aab3032a12ad4798c756259ca"},
      {"surface d5 r5 p=1e-3", surface_code_memory(d5),
       "e244431c2bf069ba4701c364d31b5e27"},
      {"conditional Paulis", conditional_pauli_circuit(),
       "509feea857dbc77652977eddf3db3b21"},
      {"ghz 513", ghz513_circuit(), "3256d6f1608fcb44369bfd9fa32d623e"},
      {"every noise channel",
       parse_circuit_file(std::string(SYMPHASE_DATA_DIR) +
                          "/noise_channels.stim"),
       "7afd9d0cbbddc90e68576404f59a0e4b"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(expressions_digest<TypeParam>(c.circuit), c.digest) << c.name;
  }
}

}  // namespace
}  // namespace symphase
