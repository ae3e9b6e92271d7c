// Cross-validation of the stabilizer machinery against the dense
// state-vector oracle on small random circuits.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "circuit/generators.hpp"
#include "statevector/state_vector.hpp"
#include "tableau/col_major_tableau.hpp"
#include "tableau/row_major_tableau.hpp"
#include "tableau/stabilizer_simulator.hpp"

namespace symphase {
namespace {

/// Runs `circuit` on both a tableau simulator and the oracle in lockstep:
/// the oracle is postselected along the tableau's measurement outcomes,
/// asserting that each outcome has the right oracle probability
/// (1.0 when the tableau says deterministic, 0.5 when random).
/// Record-controlled Paulis read the lockstep's own outcome record.
template <typename Layout>
void run_lockstep(const Circuit& circuit, std::uint64_t seed) {
  const std::size_t n = circuit.num_qubits();
  StabilizerSimulator<Layout> sim(n, seed);
  StateVector sv(n);
  std::vector<bool> record;  // M and MR outcomes; R records nothing

  const auto measure_both = [&](std::uint32_t q, bool reset_after,
                                bool recorded) {
    const bool deterministic = sim.measurement_is_deterministic(q);
    const double p0 = sv.prob_zero(q);
    if (deterministic) {
      ASSERT_NEAR(p0, p0 > 0.5 ? 1.0 : 0.0, 1e-9)
          << "tableau deterministic but oracle undecided";
    } else {
      ASSERT_NEAR(p0, 0.5, 1e-9) << "tableau random but oracle decided";
    }
    const MeasureResult r = sim.measure(q);
    if (deterministic) {
      ASSERT_EQ(r.outcome, p0 < 0.5);
    }
    sv.postselect(q, r.outcome);
    if (recorded) {
      record.push_back(r.outcome);
    }
    if (reset_after && r.outcome) {
      sim.apply_unitary(GateType::X, q);
      sv.apply_gate(GateType::X, q);
    }
  };

  for (const Instruction& inst : circuit.instructions()) {
    switch (gate_info(inst.type).kind) {
      case GateKind::kUnitary1:
        for (const std::uint32_t q : inst.targets) {
          sim.apply_unitary(inst.type, q);
          sv.apply_gate(inst.type, q);
        }
        break;
      case GateKind::kUnitary2:
        for (std::size_t i = 0; i < inst.targets.size(); i += 2) {
          sim.apply_unitary(inst.type, inst.targets[i], inst.targets[i + 1]);
          sv.apply_gate(inst.type, inst.targets[i], inst.targets[i + 1]);
        }
        break;
      case GateKind::kMeasure:
        for (const std::uint32_t q : inst.targets) {
          measure_both(q, inst.type == GateType::MR, /*recorded=*/true);
        }
        break;
      case GateKind::kReset:
        for (const std::uint32_t q : inst.targets) {
          measure_both(q, true, /*recorded=*/false);
        }
        break;
      case GateKind::kControlled: {
        const GateType pauli = inst.type == GateType::COND_X   ? GateType::X
                               : inst.type == GateType::COND_Y ? GateType::Y
                                                               : GateType::Z;
        for (std::size_t i = 0; i < inst.targets.size(); i += 2) {
          const std::uint32_t lookback = rec_lookback(inst.targets[i]);
          ASSERT_LE(lookback, record.size());
          if (record[record.size() - lookback]) {
            sim.apply_unitary(pauli, inst.targets[i + 1]);
            sv.apply_gate(pauli, inst.targets[i + 1]);
          }
        }
        break;
      }
      case GateKind::kNoise1:
      case GateKind::kNoise2:
      case GateKind::kDetector:
      case GateKind::kAnnotation:
        break;  // noise-free lockstep; detectors sample nothing
    }
  }

  // Every tableau generator must stabilize the oracle state, destabilizer
  // pairings must hold.
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(sv.is_stabilized_by(sim.stabilizer(i)))
        << "generator " << i << " = " << sim.stabilizer(i).to_string();
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(sim.destabilizer(i).commutes_with(sim.stabilizer(j)), i != j);
    }
  }
}

TEST(SimulatorOracle, StabilizersStabilizeTheStateVector) {
  Rng rng(101);
  for (int trial = 0; trial < 30; ++trial) {
    constexpr std::size_t kN = 6;
    Circuit c = random_fuzz_circuit(kN, 60, 0.0, rng, false);
    Circuit unitary_only(kN);
    for (const Instruction& inst : c.instructions()) {
      if (is_unitary(inst.type)) {
        unitary_only.append(inst.type, inst.targets);
      }
    }
    StabilizerSimulator<BlockedTableau> sim(kN, 1);
    sim.run_circuit(unitary_only);
    StateVector sv(kN);
    Rng sv_rng(1);
    std::vector<bool> record;
    sv.run_circuit(unitary_only, sv_rng, record);
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_TRUE(sv.is_stabilized_by(sim.stabilizer(i)))
          << "trial " << trial << " generator " << i << " = "
          << sim.stabilizer(i).to_string();
    }
  }
}

TEST(SimulatorOracle, LockstepFuzzBlockedLayout) {
  Rng rng(202);
  for (int trial = 0; trial < 30; ++trial) {
    const Circuit c = random_fuzz_circuit(5, 60, 0.0, rng, false);
    run_lockstep<BlockedTableau>(c, static_cast<std::uint64_t>(trial) + 1);
  }
}

TEST(SimulatorOracle, LockstepFuzzRowMajorLayout) {
  Rng rng(303);
  for (int trial = 0; trial < 30; ++trial) {
    const Circuit c = random_fuzz_circuit(6, 50, 0.0, rng, false);
    run_lockstep<RowMajorTableau>(c, static_cast<std::uint64_t>(trial) + 100);
  }
}

TEST(SimulatorOracle, LockstepFuzzColMajorLayout) {
  Rng rng(505);
  for (int trial = 0; trial < 30; ++trial) {
    const Circuit c = random_fuzz_circuit(6, 50, 0.0, rng, false);
    run_lockstep<ColMajorTableau>(c, static_cast<std::uint64_t>(trial) + 200);
  }
}

TEST(SimulatorOracle, LockstepDeepCircuit) {
  Rng rng(404);
  const Circuit c = random_fuzz_circuit(4, 400, 0.0, rng, false);
  run_lockstep<BlockedTableau>(c, 42);
}

}  // namespace
}  // namespace symphase
