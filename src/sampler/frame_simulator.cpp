#include "sampler/frame_simulator.hpp"

#include <algorithm>
#include <bit>

#include "common/parallel.hpp"
#include "common/simd_word.hpp"
#include "tableau/clifford_gates.hpp"
#include "tableau/stabilizer_simulator.hpp"

namespace symphase {

namespace {

/// A shard's frame rows as a gate layout (see clifford_gates.hpp): each
/// step hands a rule one WideWord of the X and Z frame rows it names.
/// Frames carry no sign, so the sign lane is dead and X, Y and Z leave
/// the frames as they are. Steps run over the padded row stride; the
/// padding words are never read out.
struct FrameRows {
  BitMatrix& x;
  BitMatrix& z;

  std::size_t num_qubits() const { return x.rows(); }

  template <typename Rule>
  void apply_gate(std::size_t a, std::size_t b) {
    Word* const rows[clifford::kLanes] = {x.row(a), z.row(a), x.row(b),
                                          z.row(b), nullptr};
    const std::size_t words = x.words_per_row();
    for (std::size_t w = 0; w < words; w += WideWord::kWords) {
      clifford::step<Rule, clifford::kAllLanes & ~clifford::kSign>(
          [&](std::size_t k) { return WideWord::load(rows[k] + w); },
          [&](std::size_t k, WideWord v) { v.store(rows[k] + w); });
    }
  }
};

}  // namespace

Circuit circuit_without_noise(const Circuit& circuit) {
  Circuit clean(circuit.num_qubits());
  for (const Instruction& inst : circuit.instructions()) {
    if (!is_noise(inst.type)) {
      clean.append(inst.type, inst.targets, 0.0);
    }
  }
  return clean;
}

FrameSimulator::FrameSimulator(const Circuit& circuit, std::uint64_t seed)
    : circuit_(circuit) {
  StabilizerSimulator<BlockedTableau> reference_sim(
      std::max<std::size_t>(circuit.num_qubits(), 1), seed);
  const Circuit clean = circuit_without_noise(circuit);
  reference_sim.run_circuit(clean);
  reference_ = reference_sim.record();

  // Compile one noise plan per instruction so every shard reuses the
  // strategy choice and cached constants.
  const auto& instructions = circuit_.instructions();
  noise_plans_.resize(instructions.size());
  for (std::size_t i = 0; i < instructions.size(); ++i) {
    const Instruction& inst = instructions[i];
    if (!is_noise(inst.type)) {
      continue;
    }
    noise_plans_[i] = BiasedBitPlan(inst.probability);
    max_noise_units_ = std::max(max_noise_units_,
                                inst.targets.size() / gate_arity(inst.type));
  }
}

void FrameSimulator::sample_shard(BitMatrix& out, std::size_t word0,
                                  std::size_t words, Rng rng) const {
  const std::size_t n = std::max<std::size_t>(circuit_.num_qubits(), 1);
  BitMatrix xf(n, words * kWordBits);
  BitMatrix zf(n, words * kWordBits);
  FrameRows frames{xf, zf};
  std::vector<Word> scratch(words);
  // One batched event fill covers up to kNoiseUnitBatch units (targets,
  // or pairs of a two-qubit channel) of a noise instruction: unit u of the
  // chunk owns words [u*words, (u+1)*words). The cap keeps the scratch
  // L2-resident no matter how wide a single instruction is.
  std::vector<Word> noise_scratch(
      std::min(max_noise_units_, kNoiseUnitBatch) * words);

  // Z-gauge initialization (as in Stim): each |0>-initialized qubit gets a
  // random Z frame. Z on |0> is a stabilizer, so this changes nothing
  // physically, but once coherent dynamics map Z frames onto X frames it
  // supplies exactly the per-shot randomness that "random" measurements
  // require.
  for (std::size_t q = 0; q < n; ++q) {
    fill_random_words(rng, zf.row(q), words);
  }

  std::size_t measure_index = 0;

  const auto record_measurement = [&](std::uint32_t q) {
    SYMPHASE_ASSERT(measure_index < reference_.size());
    const Word* x = xf.row(q);
    Word* dst = out.row(measure_index) + word0;
    // Tail columns beyond num_samples may pick up garbage here; the
    // single masking pass at the end of sample() clears them.
    if (reference_[measure_index]) {
      wide::not_copy_words(dst, x, words);
    } else {
      wide::copy_words(dst, x, words);
    }
    ++measure_index;
    // Collapse gauge: the measured qubit's Z frame is re-randomized.
    fill_random_words(rng, scratch.data(), words);
    wide::xor_words(zf.row(q), scratch.data(), words);
  };

  const auto reset_frames = [&](std::uint32_t q) {
    // Reset clears the X frame; the Z frame is re-randomized (fresh
    // |0>-state gauge, same reasoning as at initialization).
    xf.clear_row(q);
    fill_random_words(rng, zf.row(q), words);
  };

  // A noise channel's faults (the gate table's pattern): one batched
  // plan fill covers the events of a chunk of units (so sparse
  // probabilities run a single geometric-skip pass across them), then
  // each unit's slice goes into its frame rows. A one-symbol channel XORs
  // its events into the rows its symbol flips; a channel with more
  // symbols draws a uniform non-identity pattern per event over the rows
  // its symbols flip, one row each (matching SymbolValueSampler).
  const auto apply_faults = [&](const Instruction& inst,
                                const BiasedBitPlan& plan) {
    const FaultPattern& faults = gate_info(inst.type).faults;
    const std::size_t arity = gate_arity(inst.type);
    const std::size_t units = inst.targets.size() / arity;
    Word* events = noise_scratch.data();
    for (std::size_t base = 0; base < units; base += kNoiseUnitBatch) {
      const std::size_t nu = std::min(kNoiseUnitBatch, units - base);
      plan.fill(rng, events, nu * words);
      for (std::size_t u = 0; u < nu; ++u) {
        const std::uint32_t* unit = &inst.targets[(base + u) * arity];
        // Frame row of each lane (kFlipXa, kFlipZa, kFlipXb, kFlipZb).
        const auto lane_row = [&](unsigned lane) {
          return (lane % 2 == 0 ? xf : zf).row(unit[lane / 2]);
        };
        Word* slice = events + u * words;
        if (faults.symbols == 1) {
          for (unsigned lane = 0; lane < 2 * arity; ++lane) {
            if (((faults.flips[0] >> lane) & 1) != 0) {
              wide::xor_words(lane_row(lane), slice, words);
            }
          }
          continue;
        }
        Word* masks[4];
        for (unsigned k = 0; k < faults.symbols; ++k) {
          masks[k] = lane_row(std::countr_zero(faults.flips[k]));
        }
        fill_pauli_patterns(rng, slice, words, faults.symbols, masks,
                            inst.probability);
      }
    }
  };

  const auto& instructions = circuit_.instructions();
  for (std::size_t inst_index = 0; inst_index < instructions.size();
       ++inst_index) {
    const Instruction& inst = instructions[inst_index];
    switch (gate_info(inst.type).kind) {
      case GateKind::kAnnotation:
      case GateKind::kDetector:
        break;
      case GateKind::kMeasure:
        for (const std::uint32_t q : inst.targets) {
          record_measurement(q);
          if (inst.type == GateType::MR) {
            reset_frames(q);
          }
        }
        break;
      case GateKind::kReset:
        for (const std::uint32_t q : inst.targets) {
          reset_frames(q);
        }
        break;
      case GateKind::kControlled:
        // The reference run already applied the Pauli conditioned on the
        // reference outcome; per shot, the applied power differs by the
        // recorded *frame* bit f = out_row ^ reference, so the frame of
        // the target qubit absorbs P^f.
        for (std::size_t i = 0; i < inst.targets.size(); i += 2) {
          const std::uint32_t lookback = rec_lookback(inst.targets[i]);
          SYMPHASE_CHECK_MSG(lookback >= 1 && lookback <= measure_index,
                             gate_name(inst.type)
                                 << " record lookback " << lookback
                                 << " exceeds the measurement record");
          const std::size_t idx = measure_index - lookback;
          const std::uint32_t q = inst.targets[i + 1];
          const Word* recorded = out.row(idx) + word0;
          const bool ref = reference_[idx];
          const bool flip_x = inst.type != GateType::COND_Z;
          const bool flip_z = inst.type != GateType::COND_X;
          if (flip_x) {
            (ref ? wide::xor_not_words : wide::xor_words)(xf.row(q), recorded,
                                                          words);
          }
          if (flip_z) {
            (ref ? wide::xor_not_words : wide::xor_words)(zf.row(q), recorded,
                                                          words);
          }
        }
        break;
      case GateKind::kNoise1:
      case GateKind::kNoise2:
        apply_faults(inst, noise_plans_[inst_index]);
        break;
      case GateKind::kUnitary1:
      case GateKind::kUnitary2:
        apply_unitary(frames, inst.type, inst.targets);
        break;
    }
  }
  SYMPHASE_ASSERT(measure_index == reference_.size());
}

void FrameSimulator::sample_shard_block(std::size_t shard,
                                        std::size_t num_samples,
                                        std::uint64_t seed,
                                        BitMatrix& block) const {
  const ShardExtent e = sample_shard_extent(shard, num_samples);
  SYMPHASE_CHECK(shard < num_sample_shards(num_samples));
  SYMPHASE_CHECK(block.rows() == num_measurements());
  SYMPHASE_CHECK(block.words_per_row() >= e.words);
  sample_shard(block, 0, e.words, Rng(seed).stream(shard));
  // Same tail semantics as sample(): columns beyond the run's last shot
  // pick up frame garbage during record_measurement and are masked here.
  if (e.shots % kWordBits != 0) {
    const Word mask = tail_mask(e.shots);
    for (std::size_t r = 0; r < block.rows(); ++r) {
      block.row(r)[e.words - 1] &= mask;
    }
  }
}

BitMatrix FrameSimulator::sample(std::size_t num_samples, std::uint64_t seed,
                                 std::size_t num_threads) const {
  BitMatrix out(num_measurements(), num_samples);
  if (num_samples == 0) {
    return out;
  }
  const std::size_t shot_words = words_for_bits(num_samples);
  const std::size_t num_shards = ceil_div(shot_words, kShardWords);
  const Rng root(seed);

  parallel_for(num_shards, resolve_thread_count(num_threads),
               [&](std::size_t shard) {
                 const std::size_t word0 = shard * kShardWords;
                 const std::size_t words =
                     std::min(kShardWords, shot_words - word0);
                 sample_shard(out, word0, words, root.stream(shard));
               });

  // Single masking pass: clears both the tail columns beyond num_samples
  // and whatever record_measurement left in them, so popcount-based
  // consumers see exact counts.
  if (num_samples % kWordBits != 0) {
    const Word mask = tail_mask(num_samples);
    for (std::size_t r = 0; r < out.rows(); ++r) {
      out.row(r)[shot_words - 1] &= mask;
    }
  }
  return out;
}

FrameSimulator::DetectionEvents FrameSimulator::sample_detection_events(
    std::size_t num_samples, std::uint64_t seed,
    std::size_t num_threads) const {
  const BitMatrix measurements = sample(num_samples, seed, num_threads);
  const DetectorLayout layout = resolve_detectors(circuit_);
  DetectionEvents events{
      BitMatrix(layout.detectors.size(), num_samples),
      BitMatrix(layout.observables.size(), num_samples),
  };
  const auto fold = [&](const std::vector<std::vector<std::size_t>>& defs,
                        BitMatrix& out) {
    for (std::size_t d = 0; d < defs.size(); ++d) {
      for (const std::size_t m : defs[d]) {
        out.xor_words_into_row(
            {measurements.row(m), measurements.words_per_row()}, d);
      }
    }
  };
  fold(layout.detectors, events.detectors);
  fold(layout.observables, events.observables);
  return events;
}

}  // namespace symphase
