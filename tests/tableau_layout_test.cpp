#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "symbolic/symphase_compiler.hpp"
#include "tableau/blocked_tableau.hpp"
#include "tableau/clifford_gates.hpp"
#include "tableau/col_major_tableau.hpp"
#include "tableau/row_major_tableau.hpp"
#include "tableau/stabilizer_simulator.hpp"

namespace symphase {
namespace {

/// Full logical snapshot of a tableau, layout-independent.
struct Snapshot {
  std::vector<bool> bits;  // rows x (2n xz + phase_used), row-major

  bool operator==(const Snapshot&) const = default;
};

template <typename Layout>
Snapshot snapshot(Layout& t) {
  // Reads work in either mode via the bit accessors.
  Snapshot s;
  const std::size_t n = t.num_qubits();
  const std::size_t rows = 2 * n + 1;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t q = 0; q < n; ++q) {
      s.bits.push_back(t.x_bit(r, q));
    }
    for (std::size_t q = 0; q < n; ++q) {
      s.bits.push_back(t.z_bit(r, q));
    }
    for (std::size_t c = 0; c < t.phase_used(); ++c) {
      s.bits.push_back(t.row_phase_bit(r, c));
    }
  }
  return s;
}

template <typename Layout>
class TableauLayoutTest : public ::testing::Test {};

using Layouts =
    ::testing::Types<RowMajorTableau, ColMajorTableau, BlockedTableau>;
TYPED_TEST_SUITE(TableauLayoutTest, Layouts);

TYPED_TEST(TableauLayoutTest, IdentityInitialization) {
  TypeParam t(5, 3);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t q = 0; q < 5; ++q) {
      EXPECT_EQ(t.x_bit(t.shape().destab_row(i), q), i == q);
      EXPECT_FALSE(t.z_bit(t.shape().destab_row(i), q));
      EXPECT_EQ(t.z_bit(t.shape().stab_row(i), q), i == q);
      EXPECT_FALSE(t.x_bit(t.shape().stab_row(i), q));
    }
    EXPECT_FALSE(t.row_phase_bit(t.shape().destab_row(i), 0));
    EXPECT_FALSE(t.row_phase_bit(t.shape().stab_row(i), 0));
  }
}

TYPED_TEST(TableauLayoutTest, ModeSwitchPreservesContent) {
  TypeParam t(67, 5);  // crosses one 64-bit word boundary
  t.prepare_column_mode();
  apply_unitary(t, GateType::H, 0);
  apply_unitary(t, GateType::CNOT, 0, 66);
  apply_unitary(t, GateType::S, 33);
  const Snapshot before = snapshot(t);
  t.prepare_row_mode();
  EXPECT_EQ(snapshot(t), before);
  t.prepare_column_mode();
  EXPECT_EQ(snapshot(t), before);
  // Idempotent switches.
  t.prepare_column_mode();
  EXPECT_EQ(snapshot(t), before);
}

TYPED_TEST(TableauLayoutTest, HGateSwapsXAndZ) {
  TypeParam t(3, 1);
  t.prepare_column_mode();
  apply_unitary(t, GateType::H, 1);
  // Destabilizer 1 was X_1 -> becomes Z_1; stabilizer 1 was Z_1 -> X_1.
  EXPECT_TRUE(t.z_bit(t.shape().destab_row(1), 1));
  EXPECT_FALSE(t.x_bit(t.shape().destab_row(1), 1));
  EXPECT_TRUE(t.x_bit(t.shape().stab_row(1), 1));
  EXPECT_FALSE(t.z_bit(t.shape().stab_row(1), 1));
  // Other qubits untouched.
  EXPECT_TRUE(t.x_bit(t.shape().destab_row(0), 0));
  EXPECT_TRUE(t.z_bit(t.shape().stab_row(2), 2));
}

TYPED_TEST(TableauLayoutTest, SOnYGivesPhaseFlip) {
  // S: Y -> -X. Build Y on stabilizer row via H then S (Z -> X -> Y).
  TypeParam t(1, 1);
  t.prepare_column_mode();
  apply_unitary(t, GateType::H, 0);  // stab: X
  apply_unitary(t, GateType::S, 0);  // stab: Y
  apply_unitary(t, GateType::S, 0);  // stab: S Y S† = -X
  EXPECT_TRUE(t.x_bit(t.shape().stab_row(0), 0));
  EXPECT_FALSE(t.z_bit(t.shape().stab_row(0), 0));
  EXPECT_TRUE(t.row_phase_bit(t.shape().stab_row(0), 0));
  // Two more S return to +X... S(-X) = -Y, S(-Y) = X.
  apply_unitary(t, GateType::S, 0);
  apply_unitary(t, GateType::S, 0);
  EXPECT_FALSE(t.row_phase_bit(t.shape().stab_row(0), 0));
}

TYPED_TEST(TableauLayoutTest, PauliGatesFlipPhases) {
  TypeParam t(2, 1);
  t.prepare_column_mode();
  // Stabilizer 0 is Z_0: X on qubit 0 anticommutes -> phase flip.
  apply_unitary(t, GateType::X, 0);
  EXPECT_TRUE(t.row_phase_bit(t.shape().stab_row(0), 0));
  EXPECT_FALSE(t.row_phase_bit(t.shape().stab_row(1), 0));
  // Destabilizer 0 is X_0: Z on qubit 0 flips it.
  apply_unitary(t, GateType::Z, 0);
  EXPECT_TRUE(t.row_phase_bit(t.shape().destab_row(0), 0));
  // Y on qubit 1 flips both X_1 destab and Z_1 stab.
  apply_unitary(t, GateType::Y, 1);
  EXPECT_TRUE(t.row_phase_bit(t.shape().destab_row(1), 0));
  EXPECT_TRUE(t.row_phase_bit(t.shape().stab_row(1), 0));
}

TYPED_TEST(TableauLayoutTest, CnotPropagatesSupports) {
  TypeParam t(2, 1);
  t.prepare_column_mode();
  apply_unitary(t, GateType::CNOT, 0, 1);
  // X_0 -> X_0 X_1 (destab 0), Z_1 -> Z_0 Z_1 (stab 1).
  EXPECT_TRUE(t.x_bit(t.shape().destab_row(0), 0));
  EXPECT_TRUE(t.x_bit(t.shape().destab_row(0), 1));
  EXPECT_TRUE(t.z_bit(t.shape().stab_row(1), 0));
  EXPECT_TRUE(t.z_bit(t.shape().stab_row(1), 1));
  // X_1 and Z_0 unchanged.
  EXPECT_FALSE(t.x_bit(t.shape().destab_row(1), 0));
  EXPECT_FALSE(t.z_bit(t.shape().stab_row(0), 1));
}

TYPED_TEST(TableauLayoutTest, PhaseColumnAllocationAndFaults) {
  TypeParam t(4, 8);
  EXPECT_EQ(t.phase_used(), 1u);
  const std::size_t s1 = t.allocate_phase_column();
  const std::size_t s2 = t.allocate_phase_column();
  EXPECT_EQ(s1, 1u);
  EXPECT_EQ(s2, 2u);
  t.prepare_column_mode();
  // X^{s1} on qubit 2: stabilizer Z_2 gets column s1 flipped.
  const std::uint32_t cols1[1] = {static_cast<std::uint32_t>(s1)};
  t.phase_xor_cols_where_z(2, cols1);
  EXPECT_TRUE(t.row_phase_bit(t.shape().stab_row(2), s1));
  EXPECT_FALSE(t.row_phase_bit(t.shape().stab_row(2), s2));
  EXPECT_FALSE(t.row_phase_bit(t.shape().stab_row(1), s1));
  // Z^{s2} on qubit 0: destabilizer X_0 gets column s2 flipped.
  const std::uint32_t cols2[1] = {static_cast<std::uint32_t>(s2)};
  t.phase_xor_cols_where_x(0, cols2);
  EXPECT_TRUE(t.row_phase_bit(t.shape().destab_row(0), s2));
  // Applying the same fault twice cancels.
  t.phase_xor_cols_where_z(2, cols1);
  EXPECT_FALSE(t.row_phase_bit(t.shape().stab_row(2), s1));
}

TYPED_TEST(TableauLayoutTest, PhaseCapacityExhaustionThrows) {
  TypeParam t(2, 2);
  t.allocate_phase_column();
  EXPECT_THROW(t.allocate_phase_column(), std::invalid_argument);
}

TYPED_TEST(TableauLayoutTest, RowMultPhaseVectorXors) {
  TypeParam t(3, 6);
  const auto s1 = static_cast<std::uint32_t>(t.allocate_phase_column());
  const auto s2 = static_cast<std::uint32_t>(t.allocate_phase_column());
  t.prepare_row_mode();
  const std::size_t r0 = t.shape().stab_row(0);  // Z_0
  const std::size_t r1 = t.shape().stab_row(1);  // Z_1
  t.row_phase_xor_bit(r0, s1);
  t.row_phase_xor_bit(r1, s1);
  t.row_phase_xor_bit(r1, s2);
  t.row_mult(r0, r1);  // Z_0 * Z_1 -> Z_0 Z_1, phases XOR
  EXPECT_TRUE(t.z_bit(r0, 0));
  EXPECT_TRUE(t.z_bit(r0, 1));
  EXPECT_FALSE(t.row_phase_bit(r0, s1));  // s1 ^ s1 = 0
  EXPECT_TRUE(t.row_phase_bit(r0, s2));
  // Source row unchanged.
  EXPECT_TRUE(t.row_phase_bit(r1, s1));
  EXPECT_TRUE(t.row_phase_bit(r1, s2));
}

TYPED_TEST(TableauLayoutTest, RowMultTracksImaginaryUnits) {
  // Build stabilizer rows X (via H) and Y (via H;S) on two qubits, then
  // multiply: Y_1 appears in row via gates; verify X*Y-type product sign.
  TypeParam t(2, 1);
  t.prepare_column_mode();
  apply_unitary(t, GateType::H, 0);  // stab0: X_0
  apply_unitary(t, GateType::H, 1);
  apply_unitary(t, GateType::S, 1);  // stab1: Y_1
  t.prepare_row_mode();
  const std::size_t r0 = t.shape().stab_row(0);
  const std::size_t r1 = t.shape().stab_row(1);
  // X_0 * Y_1 commuting, no phase change expected (disjoint supports).
  t.row_mult(r0, r1);
  EXPECT_TRUE(t.x_bit(r0, 0));
  EXPECT_TRUE(t.x_bit(r0, 1));
  EXPECT_TRUE(t.z_bit(r0, 1));
  EXPECT_FALSE(t.row_phase_bit(r0, 0));
}

TYPED_TEST(TableauLayoutTest, RowCopyAndSetPlusZ) {
  TypeParam t(4, 4);
  const auto s1 = static_cast<std::uint32_t>(t.allocate_phase_column());
  t.prepare_row_mode();
  const std::size_t src = t.shape().stab_row(2);
  const std::size_t dst = t.shape().destab_row(0);
  t.row_phase_xor_bit(src, s1);
  t.row_copy(dst, src);
  EXPECT_TRUE(t.z_bit(dst, 2));
  EXPECT_FALSE(t.x_bit(dst, 0));
  EXPECT_TRUE(t.row_phase_bit(dst, s1));
  t.row_set_plus_z(dst, 3);
  EXPECT_TRUE(t.z_bit(dst, 3));
  EXPECT_FALSE(t.z_bit(dst, 2));
  EXPECT_FALSE(t.row_phase_bit(dst, s1));
}

TYPED_TEST(TableauLayoutTest, XzRowOpsLeavePhasesAlone) {
  TypeParam t(4, 4);
  const auto s1 = static_cast<std::uint32_t>(t.allocate_phase_column());
  t.prepare_row_mode();
  const std::size_t src = t.shape().stab_row(2);  // Z_2
  const std::size_t d0 = t.shape().destab_row(0);  // X_0
  const std::size_t d1 = t.shape().destab_row(1);  // X_1
  t.row_phase_xor_bit(src, s1);
  t.row_phase_xor_bit(d0, 0);
  t.row_mult_xz(d0, src);
  EXPECT_TRUE(t.x_bit(d0, 0));
  EXPECT_TRUE(t.z_bit(d0, 2));
  EXPECT_TRUE(t.row_phase_bit(d0, 0));
  EXPECT_FALSE(t.row_phase_bit(d0, s1));
  t.row_copy_xz(d1, src);
  EXPECT_FALSE(t.x_bit(d1, 1));
  EXPECT_TRUE(t.z_bit(d1, 2));
  EXPECT_FALSE(t.row_phase_bit(d1, s1));
}

TYPED_TEST(TableauLayoutTest, RowPhaseSupportMatchesBits) {
  TypeParam t(2, 1200);
  std::vector<std::uint32_t> set_cols = {1, 63, 64, 65, 130, 199, 1100};
  for (std::uint32_t c = 1; c < 1200; ++c) {
    t.allocate_phase_column();
  }
  t.prepare_row_mode();
  const std::size_t row = t.shape().stab_row(1);
  for (const std::uint32_t c : set_cols) {
    t.row_phase_xor_bit(row, c);
  }
  EXPECT_EQ(t.row_phase_support(row), set_cols);
  // Flipping a bit back leaves an empty line; it reads as empty.
  t.row_phase_xor_bit(row, 1100);
  set_cols.pop_back();
  EXPECT_EQ(t.row_phase_support(row), set_cols);
}

// x_column / z_column against x_bit / z_bit on both sides of the 512-row
// tile boundary (n = 300 gives 600 generator rows), in row and column
// mode.
TYPED_TEST(TableauLayoutTest, ColumnMasksMatchBits) {
  constexpr std::size_t kQubits = 300;
  TypeParam t(kQubits, 1);
  Rng rng(11);
  // The scratch row is not a generator: its bits stay out of the masks.
  t.prepare_row_mode();
  t.row_copy(t.shape().scratch_row(), t.shape().stab_row(0));
  t.prepare_column_mode();
  for (int k = 0; k < 2000; ++k) {
    const auto a = static_cast<std::size_t>(rng.next_below(kQubits));
    const auto b = static_cast<std::size_t>(rng.next_below(kQubits));
    switch (rng.next_below(3)) {
      case 0:
        apply_unitary(t, GateType::H, a);
        break;
      case 1:
        apply_unitary(t, GateType::S, a);
        break;
      default:
        if (a != b) {
          apply_unitary(t, GateType::CNOT, a, b);
        }
        break;
    }
  }
  std::vector<Word> mask(words_for_bits(2 * kQubits));
  const auto check = [&](const char* mode) {
    for (std::size_t q = 0; q < kQubits; ++q) {
      t.x_column(q, mask.data());
      for (std::size_t r = 0; r < 2 * kQubits; ++r) {
        ASSERT_EQ(get_bit(mask.data(), r), t.x_bit(r, q))
            << mode << " x row " << r << " qubit " << q;
      }
      t.z_column(q, mask.data());
      for (std::size_t r = 0; r < 2 * kQubits; ++r) {
        ASSERT_EQ(get_bit(mask.data(), r), t.z_bit(r, q))
            << mode << " z row " << r << " qubit " << q;
      }
    }
  };
  check("column mode");
  t.prepare_row_mode();
  check("row mode");
}

TYPED_TEST(TableauLayoutTest, LazyPhaseGrowthAcrossModeSwitches) {
  TypeParam t(3, 2000);
  t.prepare_column_mode();
  apply_unitary(t, GateType::H, 0);
  // Allocate a first batch, fault, then switch modes and grow further.
  const auto s1 = static_cast<std::uint32_t>(t.allocate_phase_column());
  const std::uint32_t cols1[1] = {s1};
  t.phase_xor_cols_where_z(1, cols1);
  t.prepare_row_mode();
  for (int k = 0; k < 1500; ++k) {
    t.allocate_phase_column();
  }
  const std::size_t row = t.shape().stab_row(1);
  EXPECT_TRUE(t.row_phase_bit(row, s1));
  t.row_phase_xor_bit(row, 1400);
  t.prepare_column_mode();
  t.prepare_row_mode();
  EXPECT_TRUE(t.row_phase_bit(row, 1400));
  EXPECT_TRUE(t.row_phase_bit(row, s1));
  EXPECT_FALSE(t.row_phase_bit(row, 1399));
}

/// A layout whose traversal checks the rule it is handed against the
/// lanes the rule declares, over all 32 inputs at once (bit i of lane k
/// is bit k of i).
struct LaneProbe {
  int rules = 0;

  std::size_t num_qubits() const { return 2; }

  template <typename Rule>
  void apply_gate(std::size_t, std::size_t) {
    ++rules;
    constexpr Word kInputs = 0xffffffff;
    Word in[clifford::kLanes];
    for (std::size_t k = 0; k < clifford::kLanes; ++k) {
      in[k] = 0;
      for (std::size_t i = 0; i < 32; ++i) {
        in[k] |= Word{(i >> k) & 1} << i;
      }
    }
    Word out[clifford::kLanes];
    std::copy_n(in, clifford::kLanes, out);
    clifford::apply_to_lanes<Rule>(out);
    // A rule writes only lanes it reads, and only XORs into the sign: its
    // flip does not depend on the old sign.
    EXPECT_EQ(Rule::kWrites & ~Rule::kReads, 0u);
    const Word flip = out[clifford::kSignLane] ^ in[clifford::kSignLane];
    EXPECT_EQ((flip ^ (flip >> 16)) & ~in[clifford::kSignLane] & kInputs, 0u);
    for (std::size_t k = 0; k < clifford::kLanes; ++k) {
      const unsigned lane = 1u << k;
      // Some input changes a written lane; no input changes another.
      EXPECT_EQ((Rule::kWrites & lane) != 0, ((out[k] ^ in[k]) & kInputs) != 0)
          << "lane " << k;
      // Flipping a read lane changes some written lane; flipping another
      // changes none.
      Word moved = 0;
      for (std::size_t w = 0; w < clifford::kLanes; ++w) {
        if ((Rule::kWrites & (1u << w)) != 0) {
          moved |= (out[w] ^ (out[w] >> (std::size_t{1} << k))) & ~in[k];
        }
      }
      EXPECT_EQ((Rule::kReads & lane) != 0, (moved & kInputs) != 0)
          << "lane " << k;
    }
  }
};

// Each rule touches exactly the lanes it declares, so a traversal that
// orients, loads and stores only those columns loses nothing: X orients
// only Z_a and the constant column, SWAP never touches the phase column,
// and S never stores X.
TEST(CliffordGates, RulesTouchExactlyTheLanesTheyDeclare) {
  LaneProbe probe;
  for (int type = 0; type <= static_cast<int>(GateType::TICK); ++type) {
    if (is_unitary(static_cast<GateType>(type))) {
      SCOPED_TRACE(gate_name(static_cast<GateType>(type)));
      apply_unitary(probe, static_cast<GateType>(type), 0, 1);
    }
  }
  EXPECT_EQ(probe.rules, 13);
  EXPECT_EQ(clifford::X::kReads | clifford::X::kWrites,
            clifford::kZa | clifford::kSign);
  EXPECT_EQ((clifford::SWAP::kReads | clifford::SWAP::kWrites) &
                clifford::kSign,
            0u);
  EXPECT_EQ(clifford::S::kWrites & clifford::kXa, 0u);
  EXPECT_THROW(apply_unitary(probe, GateType::M, 0), std::invalid_argument);
  EXPECT_THROW(apply_unitary(probe, GateType::CNOT, 1, 1),
               std::invalid_argument);
  EXPECT_THROW(apply_unitary(probe, GateType::H, 2), std::invalid_argument);
}

// Cross-layout equivalence under a long random operation sequence. The
// dense row-major and column-major layouts are the oracle for the
// blocked layout, whose row ops visit only the phase tile-columns a
// row's occupancy mask marks. Gates are drawn from every unitary gate
// type, so each layout's traversal runs every rule. The phase region
// grows from one to three 512-column tile-columns mid-run, so faults
// write tile-columns whose masks were rescanned when they last returned
// to row orientation; row bursts mix every row op with bit flips and
// phase reads; and one last long burst runs row ops only.
TEST(TableauLayoutEquivalence, RandomOperationFuzz) {
  constexpr std::size_t kQubits = 37;
  constexpr std::size_t kRows = 2 * kQubits + 1;
  constexpr std::size_t kScratch = 2 * kQubits;
  constexpr std::size_t kPhaseCols = 1200;
  constexpr int kSteps = 1200;
  constexpr int kLongBurst = 10000;
  RowMajorTableau a(kQubits, kPhaseCols);
  ColMajorTableau b(kQubits, kPhaseCols);
  BlockedTableau c(kQubits, kPhaseCols);
  Rng rng(2024);
  std::size_t allocated = 1;
  std::vector<GateType> unitaries;
  for (int type = 0; type <= static_cast<int>(GateType::TICK); ++type) {
    if (is_unitary(static_cast<GateType>(type))) {
      unitaries.push_back(static_cast<GateType>(type));
    }
  }
  ASSERT_EQ(unitaries.size(), 13u);

  const auto apply_all = [&](auto&& fn) {
    fn(a);
    fn(b);
    fn(c);
  };
  const auto random_col = [&] {
    return static_cast<std::uint32_t>(rng.next_below(allocated));
  };
  // Rows commute iff their symplectic product is even; only commuting
  // products have a real phase.
  const auto commute = [&](std::size_t r1, std::size_t r2) {
    bool odd = false;
    for (std::size_t q = 0; q < kQubits; ++q) {
      odd ^= (a.x_bit(r1, q) && a.z_bit(r2, q)) !=
             (a.z_bit(r1, q) && a.x_bit(r2, q));
    }
    return !odd;
  };
  // One row-mode op: a row product into any row (the scratch row a
  // quarter of the time), a copy, a reset to +Z, a clear, a phase-bit
  // flip, or a phase read compared across layouts on the spot.
  const auto row_op = [&](bool with_reads) {
    const std::size_t dst = rng.next_below(4) == 0
                                ? kScratch
                                : static_cast<std::size_t>(
                                      rng.next_below(2 * kQubits));
    const auto src = static_cast<std::size_t>(rng.next_below(kRows));
    const auto q = static_cast<std::size_t>(rng.next_below(kQubits));
    switch (rng.next_below(with_reads ? 8 : 7)) {
      case 0:
      case 1:
      case 2:
        if (src != dst && commute(dst, src)) {
          apply_all([&](auto& t) { t.row_mult(dst, src); });
        }
        break;
      case 3:
        apply_all([&](auto& t) { t.row_copy(dst, src); });
        break;
      case 4:
        apply_all([&](auto& t) { t.row_set_plus_z(dst, q); });
        break;
      case 5:
        apply_all([&](auto& t) { t.row_clear(dst); });
        break;
      case 6: {
        const std::uint32_t col = random_col();
        apply_all([&](auto& t) { t.row_phase_xor_bit(dst, col); });
        break;
      }
      default: {
        const std::vector<std::uint32_t> support = a.row_phase_support(dst);
        EXPECT_EQ(support, b.row_phase_support(dst));
        EXPECT_EQ(support, c.row_phase_support(dst));
        const std::uint32_t col = random_col();
        EXPECT_EQ(a.row_phase_bit(dst, col), c.row_phase_bit(dst, col));
        break;
      }
    }
  };

  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t op = rng.next_below(12);
    const auto q1 = static_cast<std::size_t>(rng.next_below(kQubits));
    auto q2 = static_cast<std::size_t>(rng.next_below(kQubits - 1));
    if (q2 >= q1) {
      ++q2;
    }
    switch (op) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4:
      case 5:
      case 6: {
        // Any unitary gate, through the shared dispatch; a gate enters
        // column mode on its own.
        const GateType gate = unitaries[rng.next_below(unitaries.size())];
        apply_all([&](auto& t) { apply_unitary(t, gate, q1, q2); });
        break;
      }
      case 7: {
        const std::size_t grow = std::min<std::size_t>(
            rng.next_below(64), kPhaseCols - allocated);
        for (std::size_t k = 0; k < grow; ++k) {
          apply_all([&](auto& t) { t.allocate_phase_column(); });
        }
        allocated += grow;
        const std::uint32_t cols[2] = {random_col(), random_col()};
        if (rng.next_below(2) == 0) {
          apply_all([&](auto& t) {
            t.prepare_column_mode();
            t.phase_xor_cols_where_z(q1, cols);
          });
        } else {
          apply_all([&](auto& t) {
            t.prepare_column_mode();
            t.phase_xor_cols_where_x(q1, cols);
          });
        }
        break;
      }
      case 8:
      case 9: {
        apply_all([&](auto& t) { t.prepare_row_mode(); });
        const std::uint64_t burst = 1 + rng.next_below(40);
        for (std::uint64_t k = 0; k < burst; ++k) {
          row_op(/*with_reads=*/true);
        }
        // Gates skip the scratch row in the row-major layout only, so it
        // leaves every burst cleared, as the compiler leaves it unused.
        apply_all([&](auto& t) { t.row_clear(kScratch); });
        break;
      }
      case 10:
        apply_all([&](auto& t) { t.prepare_row_mode(); });
        break;
      default:
        apply_all([&](auto& t) { t.prepare_column_mode(); });
        break;
    }
    if (step % 50 == 0 || step == kSteps - 1) {
      const Snapshot sa = snapshot(a);
      ASSERT_EQ(sa, snapshot(b)) << "col_major diverged at step " << step;
      ASSERT_EQ(sa, snapshot(c)) << "blocked diverged at step " << step;
    }
  }
  ASSERT_GT(allocated, 1100u);

  apply_all([&](auto& t) { t.prepare_row_mode(); });
  for (int k = 0; k < kLongBurst; ++k) {
    row_op(/*with_reads=*/false);
  }
  const Snapshot sa = snapshot(a);
  ASSERT_EQ(sa, snapshot(b)) << "col_major diverged after the long burst";
  ASSERT_EQ(sa, snapshot(c)) << "blocked diverged after the long burst";
}

// More than 64 phase tile-columns, so each row's occupancy mask spans two
// words, and n = 300, so rows span two 512-row tile-rows. Faults land in
// tile-columns whose masks were rescanned when they last returned to row
// orientation, and row products cancel rows back to an all-zero phase
// before later products refill them. The dense layouts are the oracle.
TEST(TableauLayoutEquivalence, WidePhaseRegionOccupancy) {
  constexpr std::size_t kQubits = 300;
  constexpr std::size_t kPhaseCols = 70 * BlockedTableau::kTileBits;
  constexpr std::size_t kScratch = 2 * kQubits;
  RowMajorTableau a(kQubits, kPhaseCols);
  ColMajorTableau b(kQubits, kPhaseCols);
  BlockedTableau c(kQubits, kPhaseCols);
  const auto apply_all = [&](auto&& fn) {
    fn(a);
    fn(b);
    fn(c);
  };
  for (std::size_t k = 1; k < kPhaseCols; ++k) {
    apply_all([](auto& t) { t.allocate_phase_column(); });
  }
  Rng rng(77);
  const auto qubit = [&] {
    return static_cast<std::size_t>(rng.next_below(kQubits));
  };
  const auto stab = [&] { return kQubits + qubit(); };
  std::vector<Word> ma(words_for_bits(2 * kQubits));
  std::vector<Word> mc(ma.size());
  const auto check = [&](int round) {
    for (std::size_t r = 0; r <= kScratch; ++r) {
      const std::vector<std::uint32_t> support = a.row_phase_support(r);
      ASSERT_EQ(support, b.row_phase_support(r))
          << "col_major row " << r << " round " << round;
      ASSERT_EQ(support, c.row_phase_support(r))
          << "blocked row " << r << " round " << round;
    }
    for (std::size_t q = 0; q < kQubits; ++q) {
      a.x_column(q, ma.data());
      c.x_column(q, mc.data());
      ASSERT_EQ(ma, mc) << "x column " << q << " round " << round;
      a.z_column(q, ma.data());
      c.z_column(q, mc.data());
      ASSERT_EQ(ma, mc) << "z column " << q << " round " << round;
    }
  };

  for (int round = 0; round < 8; ++round) {
    apply_all([](auto& t) { t.prepare_column_mode(); });
    for (int k = 0; k < 150; ++k) {
      const std::size_t q1 = qubit();
      const std::size_t q2 = (q1 + 1 + qubit() % (kQubits - 1)) % kQubits;
      // Early rounds use the low tile-columns so later rounds fault into
      // tile-columns that have already been rescanned.
      const std::size_t span = round < 2 ? 4 * BlockedTableau::kTileBits
                                         : kPhaseCols;
      const std::uint32_t cols[2] = {
          static_cast<std::uint32_t>(rng.next_below(span)),
          static_cast<std::uint32_t>(rng.next_below(span))};
      switch (rng.next_below(4)) {
        case 0:
          apply_all([&](auto& t) { apply_unitary(t, GateType::H, q1); });
          break;
        case 1:
          apply_all(
              [&](auto& t) { apply_unitary(t, GateType::CNOT, q1, q2); });
          break;
        case 2:
          apply_all([&](auto& t) { t.phase_xor_cols_where_z(q1, cols); });
          break;
        default:
          apply_all([&](auto& t) { t.phase_xor_cols_where_x(q1, cols); });
          break;
      }
    }
    apply_all([](auto& t) { t.prepare_row_mode(); });
    for (int k = 0; k < 60; ++k) {
      const std::size_t i = stab();
      const std::size_t j = stab();
      if (i == j) {
        continue;
      }
      switch (rng.next_below(3)) {
        case 0:
          // A product applied twice cancels: the lines it filled are
          // zero again.
          apply_all([&](auto& t) { t.row_mult(i, j); });
          apply_all([&](auto& t) { t.row_mult(i, j); });
          break;
        case 1:
          // A row times itself is +I: scratch ends all-zero.
          apply_all([&](auto& t) {
            t.row_copy(kScratch, i);
            t.row_mult(kScratch, i);
          });
          ASSERT_TRUE(c.row_phase_support(kScratch).empty());
          break;
        default:
          apply_all([&](auto& t) { t.row_mult(i, j); });
          break;
      }
    }
    check(round);
  }
}

}  // namespace
}  // namespace symphase

namespace symphase {
namespace {

// Tile-boundary sizes: identical measurement records across layouts when
// driven by the same seed (same branch structure -> same RNG draws).
class LayoutBoundaryTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LayoutBoundaryTest, RecordsAgreeAcrossLayouts) {
  const std::size_t n = GetParam();
  Circuit c(n);
  // GHZ chain + scattered single-qubit gates + measurements around the
  // word/tile boundaries.
  c.append1(GateType::H, 0);
  for (std::uint32_t q = 0; q + 1 < n; ++q) {
    c.append2(GateType::CNOT, q, q + 1);
  }
  c.append1(GateType::S, static_cast<std::uint32_t>(n - 1));
  c.append1(GateType::H, static_cast<std::uint32_t>(n / 2));
  std::vector<std::uint32_t> measured = {
      0, static_cast<std::uint32_t>(n / 2),
      static_cast<std::uint32_t>(n - 1)};
  c.append(GateType::M, measured);
  c.append1(GateType::H, 1);
  c.append1(GateType::M, 1);

  StabilizerSimulator<RowMajorTableau> a(n, 99);
  StabilizerSimulator<ColMajorTableau> b(n, 99);
  StabilizerSimulator<BlockedTableau> d(n, 99);
  a.run_circuit(c);
  b.run_circuit(c);
  d.run_circuit(c);
  EXPECT_EQ(a.record(), b.record());
  EXPECT_EQ(a.record(), d.record());
  for (std::size_t i = 0; i < n; i += n / 7 + 1) {
    EXPECT_EQ(a.stabilizer(i).to_string(), d.stabilizer(i).to_string());
    EXPECT_EQ(b.stabilizer(i).to_string(), d.stabilizer(i).to_string());
  }
}

INSTANTIATE_TEST_SUITE_P(BoundarySizes, LayoutBoundaryTest,
                         ::testing::Values(63, 64, 65, 255, 256, 257, 511,
                                           512, 513));

TEST(LayoutBoundary, SymbolicExpressionsAgreeAtTileBoundary) {
  // 513 qubits: rows span two 512-tile rows; the compiler must produce
  // identical expressions in every layout.
  Circuit c(513);
  c.append1(GateType::H, 0);
  for (std::uint32_t q = 0; q + 1 < 513; ++q) {
    c.append2(GateType::CNOT, q, q + 1);
  }
  c.append(GateType::X_ERROR, {512}, 0.01);
  c.append(GateType::M, {0, 256, 511, 512});
  SymPhaseCompiler<RowMajorTableau> row(c);
  SymPhaseCompiler<ColMajorTableau> col(c);
  SymPhaseCompiler<BlockedTableau> blocked(c);
  EXPECT_EQ(row.expressions(), col.expressions());
  EXPECT_EQ(row.expressions(), blocked.expressions());
}

}  // namespace
}  // namespace symphase
