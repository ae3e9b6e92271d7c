#pragma once

/// \file symphase.hpp
/// Public API of the SymPhase library.
///
/// The typical workflow mirrors the paper's Algorithm 1:
///
///   symphase::Circuit circuit = symphase::parse_circuit(text);
///   symphase::CompiledSampler sampler =
///       symphase::CompiledSampler::compile(circuit);      // Initialization
///   symphase::BitMatrix samples = sampler.sample(10000, seed);  // Sampling
///
/// `samples` is measurement-major: row k holds measurement k across all
/// shots, bit j of row k being shot j's outcome.
///
/// For request-shaped workloads — many tasks against one circuit, huge
/// shot counts, streaming output — prefer the session layer in
/// src/api/ (SimulatorSession + SampleTask + SampleSink; see
/// docs/api.md). The matrix-returning methods below are thin wrappers
/// over the same shard-streaming engine, kept for the small-batch
/// workflow above and for backward compatibility.
///
/// Everything else (tableau layouts, the frame-simulation baseline, the
/// state-vector oracle) is available through the per-module headers under
/// src/; this header pulls in the pieces a downstream sampling user needs.

#include <cstdint>
#include <memory>
#include <mutex>

#include "bitvec/bit_matrix.hpp"
#include "circuit/circuit.hpp"
#include "circuit/generators.hpp"
#include "circuit/parser.hpp"
#include "sampler/frame_simulator.hpp"
#include "sampler/symphase_sampler.hpp"
#include "symbolic/error_model.hpp"
#include "symbolic/symphase_compiler.hpp"

namespace symphase {

/// A circuit compiled once (Algorithm 1 Initialization) and sampled many
/// times (Algorithm 1 Sampling). Cheap to sample repeatedly; the circuit
/// is never traversed again after construction.
///
/// compile() keeps one copy of each expression set: the measurement
/// expressions moved out of the pass, and the detector and observable
/// expressions combined from them. The shard sampler of each record
/// (measurements, or detectors + observables) is built from those on
/// first use, so a task pays only for the record it reads.
class CompiledSampler {
 public:
  /// Runs the Initialization pass on the paper's blocked tableau layout
  /// (§4); the other layouts are reachable through SymPhaseCompiler.
  static CompiledSampler compile(const Circuit& circuit);

  std::size_t num_measurements() const;
  std::size_t num_symbols() const;
  /// Total expression non-zeros (drives per-shot sampling cost).
  std::size_t expression_nnz() const;

  const SymbolTable& symbols() const { return *symbols_; }
  const std::vector<MeasurementExpression>& expressions() const {
    return expressions_;
  }

  /// num_measurements() x num_samples outcome matrix; deterministic in
  /// `seed` and independent of `num_threads` (0 = hardware concurrency).
  /// Materializing wrapper over the shard-streaming engine (src/api/).
  BitMatrix sample(std::size_t num_samples, std::uint64_t seed,
                   std::size_t num_threads = 0) const;

  /// Streaming building block: computes global shard `shard` of the
  /// sample(num_samples, seed, ·) matrix into `block`
  /// (num_measurements() x kSampleShardBits scratch, leading words
  /// overwritten). Drives SimulatorSession's kSymPhase measurement
  /// streams; thread-safe for distinct blocks.
  void sample_shard_block(std::size_t shard, std::size_t num_samples,
                          std::uint64_t seed, BitMatrix& block) const;

  /// Exact marginal P(measurement k == 1).
  double outcome_probability(std::size_t k) const;

  // --- Detector / observable sampling (QEC workflows) -----------------
  std::size_t num_detectors() const { return detector_expressions_.size(); }
  std::size_t num_observables() const {
    return observable_expressions_.size();
  }
  const std::vector<MeasurementExpression>& detector_expressions() const {
    return detector_expressions_;
  }
  const std::vector<MeasurementExpression>& observable_expressions() const {
    return observable_expressions_;
  }

  struct DetectionEvents {
    BitMatrix detectors;    // num_detectors x num_samples
    BitMatrix observables;  // num_observables x num_samples
  };
  /// Joint samples of all detectors and logical observables (same shot
  /// j in both matrices comes from one symbol assignment b_j).
  /// Materializing wrapper over the shard-streaming engine (src/api/).
  DetectionEvents sample_detection_events(std::size_t num_samples,
                                          std::uint64_t seed,
                                          std::size_t num_threads = 0) const;

  /// Streaming building block for the joint detection record: shard
  /// `shard` of a (num_detectors + num_observables)-row stream, detector
  /// rows first. Same contract as sample_shard_block.
  void sample_detection_shard_block(std::size_t shard,
                                    std::size_t num_samples,
                                    std::uint64_t seed,
                                    BitMatrix& block) const;

  /// Exact marginal P(detector d fires).
  double detector_probability(std::size_t d) const;
  /// Exact marginal P(logical observable k flips).
  double observable_probability(std::size_t k) const;

  /// Extracts the detector error model (decoder input): one independent
  /// mechanism per fault pattern that flips at least one detector or
  /// observable. See symbolic/error_model.hpp.
  DetectorErrorModel error_model() const {
    return build_error_model(*symbols_, detector_expressions_,
                             observable_expressions_);
  }

  /// The shard samplers behind sample_shard_block and
  /// sample_detection_shard_block. Each is built on its first call,
  /// inside a `build_sampler` trace span (aux 0 = measurements,
  /// 1 = detection record); concurrent first callers wait for the one
  /// build. Resolve once per run, not once per shard.
  const SymPhaseSampler& measurement_sampler() const;
  const SymPhaseSampler& detection_sampler() const;

 private:
  CompiledSampler() = default;

  /// One record's sampler, built on first use. Heap-held: a mutex
  /// cannot move, and CompiledSampler must.
  struct LazySampler {
    std::mutex mutex;
    std::unique_ptr<const SymPhaseSampler> sampler;  // guarded by mutex
  };

  // Compilation artifacts. The tableau itself is discarded after
  // compilation; only the symbol table and expressions are kept. The
  // table is heap-held so the samplers' references to it survive a move.
  std::unique_ptr<SymbolTable> symbols_;
  std::vector<MeasurementExpression> expressions_;
  // Detector/observable expressions (XORs of measurement expressions);
  // the detection record is detectors first, observables after.
  std::vector<MeasurementExpression> detector_expressions_;
  std::vector<MeasurementExpression> observable_expressions_;
  std::unique_ptr<LazySampler> measurement_sampler_ =
      std::make_unique<LazySampler>();
  std::unique_ptr<LazySampler> detection_sampler_ =
      std::make_unique<LazySampler>();
};

/// XOR (symmetric difference) of sorted symbol-id expressions.
std::vector<std::uint32_t> xor_symbol_lists(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b);

/// One-call convenience: compile + sample.
BitMatrix sample_circuit(const Circuit& circuit, std::size_t num_samples,
                         std::uint64_t seed);

/// Renders a measurement expression like "s3 ^ s7 ^ 1" (symbol 0 prints
/// as the constant 1). Used by the fault-analysis tooling and examples.
std::string expression_to_string(const MeasurementExpression& expr);

}  // namespace symphase
