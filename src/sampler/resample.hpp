#pragma once

/// \file resample.hpp
/// Naive sampling baseline: one full stabilizer re-simulation per shot.
///
/// This is what using a plain tableau simulator for fault sampling looks
/// like (cost O(n_smp · n · n_g + n_smp · n² · n_m)); it anchors the
/// comparisons in the tests and gives Table 1 a "no frame, no symbols"
/// reference point. Only practical for small circuits.

#include <cstdint>

#include "bitvec/bit_matrix.hpp"
#include "circuit/circuit.hpp"

namespace symphase {

/// Samples `num_samples` measurement records by re-running the concrete
/// A-G simulator per shot. Output shape matches CompiledSampler::sample:
/// num_measurements x num_samples.
BitMatrix sample_by_resimulation(const Circuit& circuit,
                                 std::size_t num_samples, std::uint64_t seed);

}  // namespace symphase
