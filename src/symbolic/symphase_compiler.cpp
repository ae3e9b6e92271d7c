#include "symbolic/symphase_compiler.hpp"

#include "tableau/clifford_gates.hpp"

namespace symphase {

template <typename Layout>
std::size_t SymPhaseCompiler<Layout>::phase_capacity_for(
    const Circuit& circuit) {
  std::size_t capacity = 1;  // constant column s_0
  for (const Instruction& inst : circuit.instructions()) {
    const GateInfo& info = gate_info(inst.type);
    if (info.kind == GateKind::kMeasure || info.kind == GateKind::kReset) {
      capacity += inst.targets.size();
    }
    capacity += inst.targets.size() / gate_arity(inst.type) *
                info.faults.symbols;
  }
  return capacity;
}

template <typename Layout>
SymPhaseCompiler<Layout>::SymPhaseCompiler(const Circuit& circuit)
    : tableau_(std::max<std::size_t>(circuit.num_qubits(), 1),
               phase_capacity_for(circuit)),
      column_(words_for_bits(2 * tableau_.num_qubits())) {
  expressions_.reserve(circuit.num_measurements());
  for (const Instruction& inst : circuit.instructions()) {
    apply_instruction(inst);
  }
}

template <typename Layout>
void SymPhaseCompiler<Layout>::mint_symbol_columns(std::uint32_t first,
                                                   std::uint32_t count) {
  for (std::uint32_t k = 0; k < count; ++k) {
    const std::size_t col = tableau_.allocate_phase_column();
    SYMPHASE_ASSERT(col == first + k);
    (void)col;
    (void)first;
  }
}

template <typename Layout>
void SymPhaseCompiler<Layout>::apply_instruction(const Instruction& inst) {
  const GateInfo& info = gate_info(inst.type);
  switch (info.kind) {
    case GateKind::kUnitary1:
    case GateKind::kUnitary2:
      apply_unitary(tableau_, inst.type, inst.targets);
      break;
    case GateKind::kMeasure:
      for (const std::uint32_t q : inst.targets) {
        MeasurementExpression expr = measure(q);
        if (inst.type == GateType::MR) {
          conditional_x_in_row_mode(q, expr.symbols);
        }
        expressions_.push_back(std::move(expr));
      }
      break;
    case GateKind::kReset:
      for (const std::uint32_t q : inst.targets) {
        const MeasurementExpression expr = measure(q);
        conditional_x_in_row_mode(q, expr.symbols);
      }
      break;
    case GateKind::kNoise1:
    case GateKind::kNoise2:
      apply_faults(inst);
      break;
    case GateKind::kControlled:
      for (std::size_t i = 0; i < inst.targets.size(); i += 2) {
        apply_controlled(inst.type, inst.targets[i], inst.targets[i + 1]);
      }
      break;
    case GateKind::kDetector:
    case GateKind::kAnnotation:
      break;  // detectors are aggregated separately via resolve_detectors
  }
}

template <typename Layout>
void SymPhaseCompiler<Layout>::apply_controlled(GateType type,
                                                std::uint32_t rec_target,
                                                std::uint32_t qubit) {
  const std::uint32_t lookback = rec_lookback(rec_target);
  SYMPHASE_CHECK_MSG(lookback >= 1 && lookback <= expressions_.size(),
                     gate_name(type) << " record lookback " << lookback
                                     << " exceeds the measurement record");
  // The controlling bit is itself a symbolic expression; conditioning a
  // Pauli on it is exactly the X^e / Z^e phase update of Init-P, with e
  // the recorded expression instead of a single symbol.
  const std::vector<std::uint32_t>& expr =
      expressions_[expressions_.size() - lookback].symbols;
  tableau_.prepare_row_mode();
  if (type == GateType::COND_X || type == GateType::COND_Y) {
    conditional_x_in_row_mode(qubit, expr);
  }
  if (type == GateType::COND_Z || type == GateType::COND_Y) {
    conditional_z_in_row_mode(qubit, expr);
  }
}

template <typename Layout>
void SymPhaseCompiler<Layout>::apply_faults(const Instruction& inst) {
  // Init-P: each target unit mints one fault group, and a symbol that
  // flips a component of a target flips the phase of the rows that
  // anticommute with it there: X with the rows carrying Z, Z with the
  // rows carrying X.
  const FaultPattern& faults = gate_info(inst.type).faults;
  const std::size_t arity = gate_arity(inst.type);
  tableau_.prepare_column_mode();
  for (std::size_t i = 0; i < inst.targets.size(); i += arity) {
    const std::uint32_t s =
        symbols_.add_fault(inst.probability, faults.symbols);
    mint_symbol_columns(s, faults.symbols);
    for (std::uint32_t k = 0; k < faults.symbols; ++k) {
      const std::uint32_t cols[1] = {s + k};
      for (unsigned lane = 0; lane < 2 * arity; ++lane) {
        if (((faults.flips[k] >> lane) & 1) == 0) {
          continue;
        }
        const std::uint32_t q = inst.targets[i + lane / 2];
        if (lane % 2 == 0) {
          tableau_.phase_xor_cols_where_z(q, cols);
        } else {
          tableau_.phase_xor_cols_where_x(q, cols);
        }
      }
    }
  }
}

template <typename Layout>
MeasurementExpression SymPhaseCompiler<Layout>::measure(std::uint32_t a) {
  tableau_.prepare_row_mode();
  const std::size_t n = tableau_.num_qubits();
  const TableauShape& shape = tableau_.shape();
  // Row ops below change only their destination row, never an X bit a
  // later step of this measurement reads, so one mask serves them all.
  tableau_.x_column(a, column_.data());

  // Pivot: first stabilizer anticommuting with Z_a.
  const std::size_t pivot = first_set_bit(column_.data(), n, 2 * n);
  if (pivot < 2 * n) {
    // Random outcome: A-G collapse, then a fresh coin symbol becomes both
    // the new row's phase and the recorded expression. Destabilizer rows
    // take X/Z-only ops: no outcome reads a destabilizer phase.
    const std::size_t paired_destab = pivot - n;
    for_each_set_bit(column_.data(), 0, 2 * n, [&](std::size_t i) {
      if (i == pivot || i == paired_destab) {
        return;
      }
      if (i < n) {
        tableau_.row_mult_xz(i, pivot);
      } else {
        tableau_.row_mult(i, pivot);
      }
    });
    tableau_.row_copy_xz(paired_destab, pivot);
    tableau_.row_set_plus_z(pivot, a);
    const std::uint32_t s = symbols_.add_coin();
    mint_symbol_columns(s, 1);
    tableau_.row_phase_xor_bit(pivot, s);
    return {{s}, true};
  }

  // Deterministic outcome: accumulate the stabilizer product selected by
  // destabilizer X hits into the scratch row; its phase vector is the
  // outcome expression.
  const std::size_t scratch = shape.scratch_row();
  tableau_.row_clear(scratch);
  for_each_set_bit(column_.data(), 0, n, [&](std::size_t i) {
    tableau_.row_mult(scratch, shape.stab_row(i));
  });
  return {tableau_.row_phase_support(scratch), false};
}

template <typename Layout>
void SymPhaseCompiler<Layout>::conditional_x_in_row_mode(
    std::uint32_t a, const std::vector<std::uint32_t>& expr) {
  if (expr.empty()) {
    return;
  }
  const std::size_t n = tableau_.num_qubits();
  tableau_.z_column(a, column_.data());
  for_each_set_bit(column_.data(), n, 2 * n, [&](std::size_t i) {
    for (const std::uint32_t col : expr) {
      tableau_.row_phase_xor_bit(i, col);
    }
  });
}

template <typename Layout>
void SymPhaseCompiler<Layout>::conditional_z_in_row_mode(
    std::uint32_t a, const std::vector<std::uint32_t>& expr) {
  if (expr.empty()) {
    return;
  }
  const std::size_t n = tableau_.num_qubits();
  tableau_.x_column(a, column_.data());
  for_each_set_bit(column_.data(), n, 2 * n, [&](std::size_t i) {
    for (const std::uint32_t col : expr) {
      tableau_.row_phase_xor_bit(i, col);
    }
  });
}

template class SymPhaseCompiler<RowMajorTableau>;
template class SymPhaseCompiler<ColMajorTableau>;
template class SymPhaseCompiler<BlockedTableau>;

}  // namespace symphase
