// Data-layout ablation for paper §4 / Fig. 2: row-major (chp.c),
// column-major with whole-matrix transposition (Stim-style), and the
// paper's 512x512 blocked layout with local tile transposition.
//
// Measures, per layout:
//   - gate throughput (pure column operations),
//   - mode-switch (transpose) cost,
//   - measurement throughput (row operations after a mode switch),
//   - end-to-end concrete simulation of a layered random circuit, and
//   - end-to-end SymPhase compilation of a noisy layered circuit.

#include <benchmark/benchmark.h>

#include "circuit/generators.hpp"
#include "symbolic/symphase_compiler.hpp"
#include "tableau/clifford_gates.hpp"
#include "tableau/stabilizer_simulator.hpp"

namespace {

using namespace symphase;

template <typename Layout>
void BM_GateLayer(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Layout t(n, 1);
  t.prepare_column_mode();
  std::size_t q = 0;
  for (auto _ : state) {
    // One "layer": H + S on every qubit, CNOT chain.
    for (std::size_t i = 0; i < n; ++i) {
      apply_unitary(t, GateType::H, i);
      apply_unitary(t, GateType::S, i);
    }
    for (std::size_t i = 0; i + 1 < n; i += 2) {
      apply_unitary(t, GateType::CNOT, i, i + 1);
    }
    benchmark::DoNotOptimize(q += t.x_bit(0, 0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n + n / 2));
}

/// The layered-circuit access pattern in miniature: a burst of gates
/// (column ops) followed by entering measurement (row) mode. For the
/// Stim-style layout every alternation transposes the whole live matrix;
/// for the blocked layout only the tile-columns the gates touched flip.
template <typename Layout>
void BM_GateMeasureAlternation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Layout t(n, 1);
  for (auto _ : state) {
    t.prepare_column_mode();
    apply_unitary(t, GateType::H, 0);
    apply_unitary(t, GateType::CNOT, 0, n / 2);
    t.prepare_row_mode();
    benchmark::DoNotOptimize(t.x_bit(0, 0));
  }
}

template <typename Layout>
void BM_MeasurementBurst(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    StabilizerSimulator<Layout> sim(n, 7);
    for (std::size_t i = 0; i < n; ++i) {
      sim.apply_unitary(GateType::H, static_cast<std::uint32_t>(i));
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
      sim.apply_unitary(GateType::CNOT, static_cast<std::uint32_t>(i),
                        static_cast<std::uint32_t>(i + 1));
    }
    state.ResumeTiming();
    for (std::size_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(
          sim.measure(static_cast<std::uint32_t>(i)).outcome);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

template <typename Layout>
void BM_LayeredCircuitSimulation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  LayeredRandomCircuitOptions opt;
  opt.num_qubits = n;
  opt.num_layers = n;
  opt.cnot_pairs_per_layer = 5;
  Rng rng(11);
  const Circuit circuit = layered_random_circuit(opt, rng);
  for (auto _ : state) {
    StabilizerSimulator<Layout> sim(n, 13);
    sim.run_circuit(circuit);
    benchmark::DoNotOptimize(sim.record().size());
  }
}

template <typename Layout>
void BM_SymPhaseCompile(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  LayeredRandomCircuitOptions opt;
  opt.num_qubits = n;
  opt.num_layers = n;
  opt.cnot_pairs_per_layer = 5;
  opt.depolarize_probability = 0.001;
  Rng rng(17);
  const Circuit circuit = layered_random_circuit(opt, rng);
  for (auto _ : state) {
    SymPhaseCompiler<Layout> compiler(circuit);
    benchmark::DoNotOptimize(compiler.expression_nnz());
  }
}

}  // namespace

BENCHMARK_TEMPLATE(BM_GateLayer, RowMajorTableau)->Arg(256)->Arg(1024);
BENCHMARK_TEMPLATE(BM_GateLayer, ColMajorTableau)->Arg(256)->Arg(1024);
BENCHMARK_TEMPLATE(BM_GateLayer, BlockedTableau)->Arg(256)->Arg(1024);

BENCHMARK_TEMPLATE(BM_GateMeasureAlternation, RowMajorTableau)
    ->Arg(256)
    ->Arg(1024);
BENCHMARK_TEMPLATE(BM_GateMeasureAlternation, ColMajorTableau)
    ->Arg(256)
    ->Arg(1024);
BENCHMARK_TEMPLATE(BM_GateMeasureAlternation, BlockedTableau)
    ->Arg(256)
    ->Arg(1024);

BENCHMARK_TEMPLATE(BM_MeasurementBurst, RowMajorTableau)->Arg(256);
BENCHMARK_TEMPLATE(BM_MeasurementBurst, ColMajorTableau)->Arg(256);
BENCHMARK_TEMPLATE(BM_MeasurementBurst, BlockedTableau)->Arg(256);

BENCHMARK_TEMPLATE(BM_LayeredCircuitSimulation, RowMajorTableau)->Arg(128);
BENCHMARK_TEMPLATE(BM_LayeredCircuitSimulation, ColMajorTableau)->Arg(128);
BENCHMARK_TEMPLATE(BM_LayeredCircuitSimulation, BlockedTableau)->Arg(128);

BENCHMARK_TEMPLATE(BM_SymPhaseCompile, RowMajorTableau)->Arg(96);
BENCHMARK_TEMPLATE(BM_SymPhaseCompile, ColMajorTableau)->Arg(96);
BENCHMARK_TEMPLATE(BM_SymPhaseCompile, BlockedTableau)->Arg(96);

BENCHMARK_MAIN();
