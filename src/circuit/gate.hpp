#pragma once

/// \file gate.hpp
/// The gate set of the stabilizer-circuit IR.
///
/// The set mirrors what the paper's circuits need: the Clifford
/// generators (H, S, CNOT) plus the common derived Cliffords, Pauli
/// gates, computational-basis measurement/reset, and the Pauli noise
/// channels of §3.1 (X/Y/Z error, 1- and 2-qubit depolarization). Names
/// follow Stim's text format so circuits are interchangeable.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace symphase {

enum class GateType : std::uint8_t {
  // Single-qubit Cliffords.
  I,
  X,
  Y,
  Z,
  H,          // Hadamard (X <-> Z)
  S,          // sqrt(Z)
  S_DAG,
  SQRT_X,
  SQRT_X_DAG,
  H_YZ,       // Hadamard-like swap of Y and Z
  // Two-qubit Cliffords.
  CNOT,
  CZ,
  SWAP,
  // Measurement / reset (computational basis).
  M,   // measure Z
  MR,  // measure Z then reset to |0>
  R,   // reset to |0>
  // Pauli noise channels (probability argument required).
  X_ERROR,
  Y_ERROR,
  Z_ERROR,
  DEPOLARIZE1,
  DEPOLARIZE2,
  // Classically-controlled Paulis: targets are (record, qubit) pairs
  // where the record target is a lookback into the measurement record
  // (paper §6: conditional Pauli gates X^e for dynamic circuits).
  COND_X,
  COND_Y,
  COND_Z,
  // QEC annotations (all targets are rec[-k] lookbacks):
  // DETECTOR declares that the XOR of the referenced measurements is 0
  // in the absence of faults; OBSERVABLE_INCLUDE(k) XORs them into
  // logical observable k.
  DETECTOR,
  OBSERVABLE_INCLUDE,
  // Structural no-op separating layers; ignored by simulators.
  TICK,
};

/// Broad behavioural class of a gate; simulators dispatch on this first.
enum class GateKind : std::uint8_t {
  kUnitary1,   // single-qubit Clifford
  kUnitary2,   // two-qubit Clifford (targets consumed in pairs)
  kMeasure,    // produces one measurement record entry per target
  kReset,
  kNoise1,     // single-qubit Pauli channel
  kNoise2,     // two-qubit Pauli channel (targets consumed in pairs)
  kControlled, // record-controlled Pauli (targets: (rec, qubit) pairs)
  kDetector,   // DETECTOR / OBSERVABLE_INCLUDE (rec targets only)
  kAnnotation, // TICK
};

/// The Pauli components a fault symbol flips, as bits over the target
/// unit's lanes: X and Z of the first target (a), then of the second (b).
/// Lane k is component k % 2 (0 = X, 1 = Z) of target k / 2, the lane
/// order of tableau/clifford_gates.hpp.
inline constexpr std::uint8_t kFlipXa = 1u << 0;
inline constexpr std::uint8_t kFlipZa = 1u << 1;
inline constexpr std::uint8_t kFlipXb = 1u << 2;
inline constexpr std::uint8_t kFlipZb = 1u << 3;

/// A noise channel's faults (paper §3.1): every target unit (a qubit, or a
/// pair for a two-qubit channel) mints `symbols` fault symbols as one
/// group, and symbol k flips the components `flips[k]` names. A
/// one-symbol channel is a Bernoulli(p) site; a channel with more symbols
/// draws, with probability p, a uniform non-identity pattern over them,
/// and each of its symbols flips one component. Zero symbols: not a
/// noise channel.
struct FaultPattern {
  std::uint8_t symbols = 0;
  std::array<std::uint8_t, 4> flips{};
};

struct GateInfo {
  GateType type;
  std::string_view name;
  GateKind kind;
  /// Parenthesized numeric argument: a probability for noise channels,
  /// the observable index for OBSERVABLE_INCLUDE.
  bool takes_probability;
  FaultPattern faults;
};

/// Static metadata for a gate type.
const GateInfo& gate_info(GateType type);

/// Case-sensitive name lookup ("CX" accepted as alias of "CNOT").
std::optional<GateType> gate_type_from_name(std::string_view name);

inline std::string_view gate_name(GateType type) {
  return gate_info(type).name;
}

inline bool is_unitary(GateType type) {
  const GateKind k = gate_info(type).kind;
  return k == GateKind::kUnitary1 || k == GateKind::kUnitary2;
}

inline bool is_noise(GateType type) {
  const GateKind k = gate_info(type).kind;
  return k == GateKind::kNoise1 || k == GateKind::kNoise2;
}

inline bool is_two_qubit(GateType type) {
  const GateKind k = gate_info(type).kind;
  return k == GateKind::kUnitary2 || k == GateKind::kNoise2;
}

/// Number of targets each "unit" of the instruction consumes (2 for
/// pairwise gates/noise and for (record, qubit)-controlled Paulis,
/// 1 otherwise).
inline std::size_t gate_arity(GateType type) {
  return is_two_qubit(type) || gate_info(type).kind == GateKind::kControlled
             ? 2
             : 1;
}

// --- Measurement-record targets --------------------------------------
// Controlled gates address earlier measurements by lookback: a target
// with the high bit set means "the k-th most recent measurement". The
// encoding mirrors Stim's rec[-k] syntax in the text format.

inline constexpr std::uint32_t kRecTargetFlag = 0x80000000u;

constexpr std::uint32_t make_rec_target(std::uint32_t lookback) {
  return kRecTargetFlag | lookback;
}
constexpr bool is_rec_target(std::uint32_t target) {
  return (target & kRecTargetFlag) != 0;
}
/// Lookback distance: 1 = most recent measurement.
constexpr std::uint32_t rec_lookback(std::uint32_t target) {
  return target & ~kRecTargetFlag;
}

}  // namespace symphase
