#include "circuit/gate.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

namespace symphase {
namespace {

TEST(GateInfo, TableIsSelfConsistent) {
  for (const GateType t :
       {GateType::I, GateType::X, GateType::Y, GateType::Z, GateType::H,
        GateType::S, GateType::S_DAG, GateType::SQRT_X, GateType::SQRT_X_DAG,
        GateType::H_YZ, GateType::CNOT, GateType::CZ, GateType::SWAP,
        GateType::M, GateType::MR, GateType::R, GateType::X_ERROR,
        GateType::Y_ERROR, GateType::Z_ERROR, GateType::DEPOLARIZE1,
        GateType::DEPOLARIZE2, GateType::TICK}) {
    const GateInfo& info = gate_info(t);
    EXPECT_EQ(info.type, t);
    EXPECT_FALSE(info.name.empty());
    // Name lookup round-trips.
    const auto back = gate_type_from_name(info.name);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, t);
  }
}

TEST(GateInfo, Kinds) {
  EXPECT_EQ(gate_info(GateType::H).kind, GateKind::kUnitary1);
  EXPECT_EQ(gate_info(GateType::CNOT).kind, GateKind::kUnitary2);
  EXPECT_EQ(gate_info(GateType::M).kind, GateKind::kMeasure);
  EXPECT_EQ(gate_info(GateType::R).kind, GateKind::kReset);
  EXPECT_EQ(gate_info(GateType::X_ERROR).kind, GateKind::kNoise1);
  EXPECT_EQ(gate_info(GateType::DEPOLARIZE2).kind, GateKind::kNoise2);
  EXPECT_EQ(gate_info(GateType::TICK).kind, GateKind::kAnnotation);
}

TEST(GateInfo, ProbabilityFlag) {
  EXPECT_TRUE(gate_info(GateType::X_ERROR).takes_probability);
  EXPECT_TRUE(gate_info(GateType::DEPOLARIZE1).takes_probability);
  EXPECT_FALSE(gate_info(GateType::H).takes_probability);
  EXPECT_FALSE(gate_info(GateType::M).takes_probability);
}

TEST(GateInfo, Aliases) {
  EXPECT_EQ(gate_type_from_name("CX"), GateType::CNOT);
  EXPECT_EQ(gate_type_from_name("MZ"), GateType::M);
  EXPECT_EQ(gate_type_from_name("SQRT_Z"), GateType::S);
  EXPECT_EQ(gate_type_from_name("SQRT_Z_DAG"), GateType::S_DAG);
}

TEST(GateInfo, UnknownNameIsEmpty) {
  EXPECT_FALSE(gate_type_from_name("T").has_value());
  EXPECT_FALSE(gate_type_from_name("cnot").has_value());  // case sensitive
  EXPECT_FALSE(gate_type_from_name("").has_value());
}

TEST(GateInfo, ArityHelpers) {
  EXPECT_EQ(gate_arity(GateType::H), 1u);
  EXPECT_EQ(gate_arity(GateType::CNOT), 2u);
  EXPECT_EQ(gate_arity(GateType::DEPOLARIZE2), 2u);
  EXPECT_EQ(gate_arity(GateType::DEPOLARIZE1), 1u);
  EXPECT_TRUE(is_unitary(GateType::SWAP));
  EXPECT_FALSE(is_unitary(GateType::M));
  EXPECT_TRUE(is_noise(GateType::Y_ERROR));
  EXPECT_FALSE(is_noise(GateType::Y));
  EXPECT_TRUE(is_two_qubit(GateType::CZ));
  EXPECT_FALSE(is_two_qubit(GateType::S));
}

TEST(GateInfo, FaultPatternsAreWellFormed) {
  // Only noise channels mint symbols: 1, 2 or 4 per unit. Each symbol
  // flips a component of one of the unit's targets, and in a channel that
  // draws patterns it flips exactly one (a pattern bit is one frame row).
  for (std::size_t t = 0; t <= static_cast<std::size_t>(GateType::TICK);
       ++t) {
    const GateType type = static_cast<GateType>(t);
    const FaultPattern& faults = gate_info(type).faults;
    if (!is_noise(type)) {
      EXPECT_EQ(faults.symbols, 0u) << gate_name(type);
      continue;
    }
    EXPECT_TRUE(faults.symbols == 1 || faults.symbols == 2 ||
                faults.symbols == 4)
        << gate_name(type);
    const unsigned lanes = (1u << (2 * gate_arity(type))) - 1;
    for (std::size_t k = 0; k < faults.flips.size(); ++k) {
      const unsigned flips = faults.flips[k];
      if (k >= faults.symbols) {
        EXPECT_EQ(flips, 0u) << gate_name(type) << " symbol " << k;
        continue;
      }
      EXPECT_NE(flips, 0u) << gate_name(type) << " symbol " << k;
      EXPECT_EQ(flips & ~lanes, 0u) << gate_name(type) << " symbol " << k;
      if (faults.symbols > 1) {
        EXPECT_EQ(std::popcount(flips), 1) << gate_name(type) << " " << k;
      }
    }
  }
  // The channels of paper §3.1.
  const auto flips = [](GateType type) {
    const FaultPattern& f = gate_info(type).faults;
    return std::vector<unsigned>(f.flips.begin(),
                                 f.flips.begin() + f.symbols);
  };
  using V = std::vector<unsigned>;
  EXPECT_EQ(flips(GateType::X_ERROR), V{kFlipXa});
  EXPECT_EQ(flips(GateType::Y_ERROR), V{kFlipXa | kFlipZa});
  EXPECT_EQ(flips(GateType::Z_ERROR), V{kFlipZa});
  EXPECT_EQ(flips(GateType::DEPOLARIZE1), (V{kFlipXa, kFlipZa}));
  EXPECT_EQ(flips(GateType::DEPOLARIZE2),
            (V{kFlipXa, kFlipZa, kFlipXb, kFlipZb}));
}

}  // namespace
}  // namespace symphase
