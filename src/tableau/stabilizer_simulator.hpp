#pragma once

/// \file stabilizer_simulator.hpp
/// Aaronson–Gottesman stabilizer simulator with concrete phases.
///
/// This is the classic improved-tableau algorithm (paper §2.2): Clifford
/// gates in O(n), computational-basis measurements in O(n²) via
/// destabilizer bookkeeping. It is templated over the data layout
/// (RowMajorTableau / ColMajorTableau / BlockedTableau) so the §4 layout
/// study applies to the baseline algorithm as well as to SymPhase. Gates
/// go through apply_unitary (clifford_gates.hpp), where each gate's rule
/// is declared once; each layout owns only the traversal that applies a
/// rule to its memory.
///
/// Used directly as a reference simulator (it also powers the Pauli-frame
/// baseline's noiseless reference run) and as the structural skeleton the
/// symbolic-phase compiler extends.

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "pauli/pauli_string.hpp"
#include "tableau/blocked_tableau.hpp"
#include "tableau/clifford_gates.hpp"

namespace symphase {

/// Result of one concrete measurement.
struct MeasureResult {
  bool outcome = false;
  bool was_random = false;
};

template <typename Layout>
class StabilizerSimulator {
 public:
  explicit StabilizerSimulator(std::size_t num_qubits, std::uint64_t seed = 0)
      : tableau_(num_qubits, /*phase_capacity=*/1), rng_(seed) {}

  std::size_t num_qubits() const { return tableau_.num_qubits(); }
  Layout& tableau() { return tableau_; }
  const Layout& tableau() const { return tableau_; }

  /// Measurement record accumulated by run_circuit / measure calls.
  const std::vector<bool>& record() const { return record_; }

  // --- Unitary gates -------------------------------------------------
  /// Applies a unitary gate through the layout's gate traversal.
  void apply_unitary(GateType type, std::uint32_t a, std::uint32_t b = 0) {
    symphase::apply_unitary(tableau_, type, a, b);
  }

  // --- Measurement / reset --------------------------------------------
  /// Measures qubit a in the computational basis.
  MeasureResult measure(std::uint32_t a) {
    tableau_.prepare_row_mode();
    const std::size_t n = num_qubits();
    const std::size_t pivot = find_pivot(a);
    if (pivot != kNoPivot) {
      collapse_on_pivot(a, pivot);
      const bool outcome = (rng_.next_word() & 1) != 0;
      if (outcome) {
        tableau_.row_phase_xor_bit(pivot, 0);
      }
      return {outcome, true};
    }
    // Deterministic: accumulate stabilizer rows named by destabilizer
    // X hits into the scratch row; its sign is the outcome.
    const std::size_t scratch = tableau_.shape().scratch_row();
    tableau_.row_clear(scratch);
    for (std::size_t i = 0; i < n; ++i) {
      if (tableau_.x_bit(tableau_.shape().destab_row(i), a)) {
        tableau_.row_mult(scratch, tableau_.shape().stab_row(i));
      }
    }
    return {tableau_.row_phase_bit(scratch, 0), false};
  }

  /// True when measuring `a` right now would give a deterministic
  /// outcome (no state change).
  bool measurement_is_deterministic(std::uint32_t a) {
    tableau_.prepare_row_mode();
    return find_pivot(a) == kNoPivot;
  }

  /// Resets qubit a to |0>: measure, then conditionally flip.
  void reset_qubit(std::uint32_t a) {
    const MeasureResult r = measure(a);
    if (r.outcome) {
      apply_x_in_row_mode(a);
    }
  }

  // --- Full circuit execution -----------------------------------------
  /// Executes every instruction; noise channels are sampled concretely
  /// with this simulator's RNG. This is the "resampling by re-simulation"
  /// baseline: one full traversal per sample.
  void run_circuit(const Circuit& circuit) {
    SYMPHASE_CHECK(circuit.num_qubits() <= num_qubits());
    for (const Instruction& inst : circuit.instructions()) {
      apply_instruction(inst);
    }
  }

  void apply_instruction(const Instruction& inst) {
    const GateInfo& info = gate_info(inst.type);
    switch (info.kind) {
      case GateKind::kUnitary1:
      case GateKind::kUnitary2:
        symphase::apply_unitary(tableau_, inst.type, inst.targets);
        break;
      case GateKind::kMeasure:
        for (const std::uint32_t q : inst.targets) {
          const MeasureResult r = measure(q);
          record_.push_back(r.outcome);
          if (inst.type == GateType::MR && r.outcome) {
            apply_x_in_row_mode(q);
          }
        }
        break;
      case GateKind::kReset:
        for (const std::uint32_t q : inst.targets) {
          reset_qubit(q);
        }
        break;
      case GateKind::kNoise1:
        for (const std::uint32_t q : inst.targets) {
          apply_channel1(inst.type, q, inst.probability);
        }
        break;
      case GateKind::kNoise2:
        for (std::size_t i = 0; i < inst.targets.size(); i += 2) {
          apply_channel2(inst.probability, inst.targets[i],
                         inst.targets[i + 1]);
        }
        break;
      case GateKind::kControlled:
        for (std::size_t i = 0; i < inst.targets.size(); i += 2) {
          apply_controlled(inst.type, inst.targets[i], inst.targets[i + 1]);
        }
        break;
      case GateKind::kDetector:
      case GateKind::kAnnotation:
        break;  // annotations; consumed by the sampling layers
    }
  }

  /// Record-controlled Pauli (COND_X/COND_Y/COND_Z): applies the Pauli
  /// iff the looked-up measurement record bit is 1.
  void apply_controlled(GateType type, std::uint32_t rec_target,
                        std::uint32_t qubit) {
    const std::uint32_t lookback = rec_lookback(rec_target);
    SYMPHASE_CHECK_MSG(lookback >= 1 && lookback <= record_.size(),
                       gate_name(type) << " record lookback " << lookback
                                       << " exceeds the measurement record");
    if (!record_[record_.size() - lookback]) {
      return;
    }
    switch (type) {
      case GateType::COND_X:
        apply_unitary(GateType::X, qubit);
        break;
      case GateType::COND_Y:
        apply_unitary(GateType::Y, qubit);
        break;
      case GateType::COND_Z:
        apply_unitary(GateType::Z, qubit);
        break;
      default:
        SYMPHASE_CHECK_MSG(false, "not a controlled Pauli");
    }
  }

  // --- Test/inspection helpers ----------------------------------------
  PauliString stabilizer(std::size_t i) const {
    return extract_row(tableau_.shape().stab_row(i));
  }
  PauliString destabilizer(std::size_t i) const {
    return extract_row(tableau_.shape().destab_row(i));
  }

 private:
  static constexpr std::size_t kNoPivot = static_cast<std::size_t>(-1);

  /// First stabilizer row anticommuting with Z_a, or kNoPivot.
  std::size_t find_pivot(std::uint32_t a) const {
    const std::size_t n = num_qubits();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t row = tableau_.shape().stab_row(i);
      if (tableau_.x_bit(row, a)) {
        return row;
      }
    }
    return kNoPivot;
  }

  /// A-G random-measurement update around stabilizer row `pivot`:
  /// multiplies every other X-hit row by the pivot, moves the pivot to
  /// its destabilizer slot, and replaces it with +Z_a.
  void collapse_on_pivot(std::uint32_t a, std::size_t pivot) {
    const std::size_t n = num_qubits();
    const std::size_t paired_destab = pivot - n;
    for (std::size_t i = 0; i < 2 * n; ++i) {
      // The paired destabilizer is overwritten below; multiplying it
      // first would also transiently break the real-phase invariant.
      if (i == pivot || i == paired_destab) {
        continue;
      }
      if (tableau_.x_bit(i, a)) {
        tableau_.row_mult(i, pivot);
      }
    }
    tableau_.row_copy(paired_destab, pivot);
    tableau_.row_set_plus_z(pivot, a);
  }

  /// Applies an X gate without leaving row mode (flips the constant
  /// phase of every row with a Z component on `a`). Used for the
  /// conditional flip in resets so MR bursts do not thrash the layout
  /// between row and column mode.
  void apply_x_in_row_mode(std::uint32_t a) {
    const std::size_t rows = 2 * num_qubits();
    for (std::size_t i = 0; i < rows; ++i) {
      if (tableau_.z_bit(i, a)) {
        tableau_.row_phase_xor_bit(i, 0);
      }
    }
  }

  void apply_channel1(GateType type, std::uint32_t q, double p) {
    if (type == GateType::DEPOLARIZE1) {
      if (rng_.next_double() < p) {
        switch (rng_.next_below(3)) {
          case 0:
            apply_unitary(GateType::X, q);
            break;
          case 1:
            apply_unitary(GateType::Y, q);
            break;
          default:
            apply_unitary(GateType::Z, q);
            break;
        }
      }
      return;
    }
    if (rng_.next_double() < p) {
      switch (type) {
        case GateType::X_ERROR:
          apply_unitary(GateType::X, q);
          break;
        case GateType::Y_ERROR:
          apply_unitary(GateType::Y, q);
          break;
        case GateType::Z_ERROR:
          apply_unitary(GateType::Z, q);
          break;
        default:
          SYMPHASE_CHECK_MSG(false, "not a single-qubit noise channel");
      }
    }
  }

  void apply_channel2(double p, std::uint32_t a, std::uint32_t b) {
    if (rng_.next_double() >= p) {
      return;
    }
    const std::uint64_t pattern = rng_.next_below(15) + 1;
    const auto apply_code = [&](std::uint32_t q, std::uint64_t code) {
      switch (code) {
        case 1:
          apply_unitary(GateType::X, q);
          break;
        case 2:
          apply_unitary(GateType::Z, q);
          break;
        case 3:
          apply_unitary(GateType::Y, q);
          break;
        default:
          break;
      }
    };
    apply_code(a, pattern & 3);
    apply_code(b, (pattern >> 2) & 3);
  }

  PauliString extract_row(std::size_t row) const {
    PauliString p(num_qubits());
    for (std::size_t q = 0; q < num_qubits(); ++q) {
      p.x_bits().set(q, tableau_.x_bit(row, q));
      p.z_bits().set(q, tableau_.z_bit(row, q));
    }
    p.set_sign(tableau_.row_phase_bit(row, 0));
    return p;
  }

  Layout tableau_;
  Rng rng_;
  std::vector<bool> record_;
};

}  // namespace symphase
