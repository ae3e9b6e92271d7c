#pragma once

/// \file error_model.hpp
/// Detector-error-model (DEM) extraction from symbolic expressions.
///
/// Phase symbolization makes the fault → measurement map explicit: every
/// detector/observable expression lists exactly the fault symbols that
/// flip it. Inverting that map per fault *group* (one noise-channel site;
/// symbol_table.hpp) yields the independent error mechanisms a
/// matching/BP decoder consumes:
///
///     error(0.002) D3 D7 L0
///
/// — "with probability 0.002, detectors 3 and 7 fire and logical 0
/// flips". A group contributes one mechanism per non-identity pattern
/// over its members (a one-member group, e.g. an X_ERROR site, has just
/// the one, at p), with symptoms equal to the XOR of the pattern's member
/// symbols' symptoms; patterns with identical symptoms are merged by
/// summing probabilities (mod-2 on simultaneous occurrence is a second-
/// order effect ignored here, as is standard for DEMs).
///
/// The related-work algorithms the paper compares against (Delfosse &
/// Paetznick's ABC simulation) compute exactly this relation by a
/// backward pass; here it falls out of Algorithm 1's forward pass.

#include <cstdint>
#include <string>
#include <vector>

#include "symbolic/symbol_table.hpp"
#include "symbolic/symphase_compiler.hpp"

namespace symphase {

struct ErrorMechanism {
  double probability = 0.0;
  std::vector<std::uint32_t> detectors;    // sorted detector indices
  std::vector<std::uint32_t> observables;  // sorted logical indices

  bool operator==(const ErrorMechanism&) const = default;
};

struct DetectorErrorModel {
  std::size_t num_detectors = 0;
  std::size_t num_observables = 0;
  std::vector<ErrorMechanism> mechanisms;

  /// Stim-DEM-style rendering: one "error(p) D.. L.." line per
  /// mechanism.
  std::string to_text() const;

  /// Marginal P(detector d fires) treating mechanisms as independent.
  /// Exact for Bernoulli fault sites; for correlated channels whose
  /// patterns were split into several mechanisms this is the standard
  /// DEM independence approximation (error O(p^2)).
  double detector_probability(std::size_t d) const;

  /// Merges mechanisms with identical symptom sets across the whole
  /// model (p = p1(1-p2) + p2(1-p1), the XOR of independent triggers)
  /// and sorts mechanisms by symptoms. Decoder-friendly canonical form.
  DetectorErrorModel canonicalized() const;
};

/// Builds the DEM from compiled detector/observable expressions.
/// Mechanisms with empty symptom sets (faults no detector sees) are
/// dropped; mechanisms within one correlated group are merged by
/// symptom. Throws if any expression references a measurement coin
/// (non-deterministic detector).
DetectorErrorModel build_error_model(
    const SymbolTable& symbols,
    const std::vector<MeasurementExpression>& detector_expressions,
    const std::vector<MeasurementExpression>& observable_expressions);

}  // namespace symphase
