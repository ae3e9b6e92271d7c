#pragma once

/// \file symphase_compiler.hpp
/// Algorithm 1's Initialization: one forward pass that turns a noisy
/// stabilizer circuit into symbolic measurement-outcome expressions.
///
/// The compiler runs the A-G tableau algorithm with phase columns
/// widened to bit-vectors over symbols (paper Eq. (3)), applying
///   Init-C  — Clifford gates update X/Z bands and the constant column,
///   Init-P  — Pauli faults flip one symbol column on the rows whose
///             generators anticommute with the fault Pauli,
///   Init-M  — measurements either mint a fresh coin symbol (random) or
///             accumulate a symbolic expression in the scratch row
///             (deterministic).
/// The output is one F2 expression (sorted symbol-id list; id 0 is the
/// constant 1) per measurement: the rows of the sparse matrix M of
/// Eq. (4) that sampler::SymPhaseSampler samples.
///
/// Only stabilizer rows and the scratch row keep meaningful symbolic
/// phases. Gates and faults update a row's phase from that row's own X/Z
/// bits; a random collapse writes destabilizers only from the pivot
/// stabilizer; a deterministic outcome sums stabilizer rows into the
/// scratch row; and the rowsum's i-exponent depends on X/Z bits only. So
/// no outcome ever reads a destabilizer phase, and destabilizer rows take
/// X/Z-only row ops (their X bits still select the stabilizers of a
/// deterministic outcome).

#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "symbolic/symbol_table.hpp"
#include "tableau/blocked_tableau.hpp"
#include "tableau/col_major_tableau.hpp"
#include "tableau/row_major_tableau.hpp"

namespace symphase {

/// One measurement's compiled outcome.
struct MeasurementExpression {
  /// Sorted, duplicate-free symbol ids whose XOR (under a sampled
  /// assignment, with symbol 0 fixed to 1) gives the outcome bit.
  std::vector<std::uint32_t> symbols;
  bool was_random = false;

  bool operator==(const MeasurementExpression&) const = default;
};

template <typename Layout>
class SymPhaseCompiler {
 public:
  /// Runs the full Initialization pass over `circuit`.
  explicit SymPhaseCompiler(const Circuit& circuit);

  std::size_t num_qubits() const { return tableau_.num_qubits(); }
  const SymbolTable& symbols() const { return symbols_; }
  const std::vector<MeasurementExpression>& expressions() const {
    return expressions_;
  }
  std::size_t num_measurements() const { return expressions_.size(); }

  /// Move the pass's outputs out (CompiledSampler keeps them, and the
  /// compiler is discarded); the compiler is empty afterwards.
  SymbolTable take_symbols() { return std::move(symbols_); }
  std::vector<MeasurementExpression> take_expressions() {
    return std::move(expressions_);
  }

  /// Total non-zeros across all expressions (sampling cost driver).
  std::size_t expression_nnz() const {
    std::size_t total = 0;
    for (const auto& e : expressions_) {
      total += e.symbols.size();
    }
    return total;
  }

 private:
  /// Upper bound on phase columns: 1 + every measurement/reset (each may
  /// mint a coin) + every fault symbol.
  static std::size_t phase_capacity_for(const Circuit& circuit);

  void apply_instruction(const Instruction& inst);
  /// Init-P for a noise channel: its gate-table fault pattern per unit.
  void apply_faults(const Instruction& inst);

  /// Init-M for one qubit; returns the outcome expression.
  MeasurementExpression measure(std::uint32_t a);
  /// Applies X^expr (resp. Z^expr) at qubit a without leaving row mode,
  /// to the stabilizer rows (destabilizer phases are write-only). Used
  /// for conditional reset flips and for the record-controlled Pauli
  /// gates COND_X/COND_Y/COND_Z (the paper's §6 conditional-Pauli
  /// extension for dynamic circuits).
  void conditional_x_in_row_mode(std::uint32_t a,
                                 const std::vector<std::uint32_t>& expr);
  void conditional_z_in_row_mode(std::uint32_t a,
                                 const std::vector<std::uint32_t>& expr);
  void apply_controlled(GateType type, std::uint32_t rec_target,
                        std::uint32_t qubit);

  /// Allocates tableau phase columns for symbols [first, first+count),
  /// asserting SymbolTable ids stay aligned with phase-column indices.
  void mint_symbol_columns(std::uint32_t first, std::uint32_t count);

  SymbolTable symbols_;
  Layout tableau_;
  /// One X or Z column of the generator rows (x_column / z_column).
  std::vector<Word> column_;
  std::vector<MeasurementExpression> expressions_;
};

// Explicitly instantiated for the three layouts (see symphase_compiler.cpp).
extern template class SymPhaseCompiler<RowMajorTableau>;
extern template class SymPhaseCompiler<ColMajorTableau>;
extern template class SymPhaseCompiler<BlockedTableau>;

/// The default (paper) configuration.
using DefaultSymPhaseCompiler = SymPhaseCompiler<BlockedTableau>;

}  // namespace symphase
