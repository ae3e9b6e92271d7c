#pragma once

/// \file frame_simulator.hpp
/// Batched Pauli-frame propagation — the baseline algorithm (Rall et al.
/// 2019) used by Stim, reproduced here for the paper's comparisons.
///
/// One noiseless A-G pass produces a reference measurement record; each
/// sample then propagates only the Pauli *difference* (frame) between the
/// noisy run and the reference through the circuit. Frames for 64 shots
/// are packed per word, so the per-gate cost is O(n_smp/64) words and the
/// total sampling cost is O(n_smp · (n_g + n_m + n_p)) — the "Stim's"
/// row of the paper's Table 1. Unlike SymPhase, every batch of samples
/// re-traverses the whole circuit.
///
/// Frame semantics: X-frame bits flip Z-measurement outcomes; after a
/// measurement or reset the Z-frame of the touched qubit is randomized
/// (measurement collapse makes the relative phase a fresh gauge), which
/// matters if the qubit later re-enters coherent dynamics. A unitary gate
/// conjugates the frames by the same rule the tableau layouts apply
/// (tableau/clifford_gates.hpp), with the sign lane dead: frames carry no
/// sign, so X, Y and Z leave them unchanged.
///
/// Sampling is shot-sharded: the shot axis is cut into fixed-size,
/// word-aligned shards (kShardWords words = kShardWords*64 shots each),
/// every shard propagates its own frames with an independent
/// counter-based RNG stream (Rng::stream(shard)), and shards write
/// disjoint word ranges of the output. The shard decomposition depends
/// only on num_samples, so results are bit-identical for any thread
/// count.

#include <cstdint>
#include <vector>

#include "bitvec/bit_matrix.hpp"
#include "circuit/circuit.hpp"
#include "common/noise.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace symphase {

/// Returns `circuit` with every noise channel removed (the reference
/// circuit of the frame method).
Circuit circuit_without_noise(const Circuit& circuit);

class FrameSimulator {
 public:
  /// Builds the sampler: runs the noiseless reference simulation once
  /// (this is the frame method's "initialize a sampler" cost in Fig. 3).
  explicit FrameSimulator(const Circuit& circuit, std::uint64_t seed = 0);

  std::size_t num_measurements() const { return reference_.size(); }
  const std::vector<bool>& reference_record() const { return reference_; }

  /// Shots per shard (library-wide constant; see common/parallel.hpp).
  static constexpr std::size_t kShardWords = kSampleShardWords;

  /// Generates `num_samples` joint samples of all measurements by
  /// propagating that many frames through the circuit (one traversal per
  /// shard per call). Output: num_measurements x num_samples, same
  /// convention as CompiledSampler::sample. Deterministic in `seed` and
  /// independent of `num_threads` (0 = hardware concurrency).
  BitMatrix sample(std::size_t num_samples, std::uint64_t seed,
                   std::size_t num_threads = 0) const;

  /// Streaming building block: propagates only the frames of global shard
  /// `shard` of a `num_samples`-shot run, writing the leading words of
  /// `block` (num_measurements() x kSampleShardBits scratch). Word w of
  /// each block row is bit-identical to word shard*kSampleShardWords + w
  /// of sample(num_samples, seed), including the masked final-shard tail.
  /// Thread-safe for distinct `block`s.
  void sample_shard_block(std::size_t shard, std::size_t num_samples,
                          std::uint64_t seed, BitMatrix& block) const;

  struct DetectionEvents {
    BitMatrix detectors;
    BitMatrix observables;
  };
  /// Samples measurements, then folds them through the circuit's
  /// DETECTOR / OBSERVABLE_INCLUDE annotations (XOR of record rows).
  DetectionEvents sample_detection_events(std::size_t num_samples,
                                          std::uint64_t seed,
                                          std::size_t num_threads = 0) const;

 private:
  /// Propagates frames for the shard covering output words
  /// [word0, word0 + words) of every measurement row. `rng` is the
  /// shard's private stream.
  void sample_shard(BitMatrix& out, std::size_t word0, std::size_t words,
                    Rng rng) const;

  Circuit circuit_;  // owned copy: the sampler re-traverses it per batch
  std::vector<bool> reference_;
  /// One compiled noise-generation plan per instruction (identity plan
  /// for non-noise instructions), so the strategy choice and log1p /
  /// binary-expansion setup happen once per circuit, not per shard call.
  std::vector<BiasedBitPlan> noise_plans_;
  /// Cap on fill units (targets, or pairs for a two-qubit channel) per
  /// batched plan call: enough to amortize the engine's batch setup,
  /// small enough that the event scratch (64 x 128 words = 64 KiB)
  /// stays cache-resident however wide one instruction is.
  static constexpr std::size_t kNoiseUnitBatch = 64;
  /// Max fill units of any single noise instruction; sizes the
  /// per-shard noise scratch (capped at kNoiseUnitBatch).
  std::size_t max_noise_units_ = 0;
};

}  // namespace symphase
