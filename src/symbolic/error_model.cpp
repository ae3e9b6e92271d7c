#include "symbolic/error_model.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace symphase {

namespace {

/// Symptoms (flipped detectors + observables) of a single symbol.
struct Symptoms {
  std::vector<std::uint32_t> detectors;
  std::vector<std::uint32_t> observables;

  bool empty() const { return detectors.empty() && observables.empty(); }

  bool operator<(const Symptoms& other) const {
    return std::tie(detectors, observables) <
           std::tie(other.detectors, other.observables);
  }

  /// XOR-merge (symmetric difference of sorted index lists).
  static std::vector<std::uint32_t> merge(
      const std::vector<std::uint32_t>& a,
      const std::vector<std::uint32_t>& b) {
    std::vector<std::uint32_t> out;
    std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                  std::back_inserter(out));
    return out;
  }

  Symptoms operator^(const Symptoms& other) const {
    return {merge(detectors, other.detectors),
            merge(observables, other.observables)};
  }
};

}  // namespace

DetectorErrorModel build_error_model(
    const SymbolTable& symbols,
    const std::vector<MeasurementExpression>& detector_expressions,
    const std::vector<MeasurementExpression>& observable_expressions) {
  // Invert: symbol -> symptoms.
  std::vector<Symptoms> symbol_symptoms(symbols.num_symbols());
  const auto scan = [&](const std::vector<MeasurementExpression>& exprs,
                        bool is_observable) {
    for (std::size_t k = 0; k < exprs.size(); ++k) {
      for (const std::uint32_t sym : exprs[k].symbols) {
        SYMPHASE_CHECK_MSG(
            symbols.group_of(sym).kind != SymbolGroupKind::kCoin,
            "detector error model requires deterministic detectors, but "
            "symbol s"
                << sym << " is a measurement coin");
        if (sym == 0) {
          continue;  // the constant shifts parity but is not a fault
        }
        auto& s = symbol_symptoms[sym];
        auto& list = is_observable ? s.observables : s.detectors;
        list.push_back(static_cast<std::uint32_t>(k));
      }
    }
  };
  scan(detector_expressions, false);
  scan(observable_expressions, true);

  DetectorErrorModel model;
  model.num_detectors = detector_expressions.size();
  model.num_observables = observable_expressions.size();

  for (const SymbolGroup& group : symbols.groups()) {
    if (group.kind != SymbolGroupKind::kFault || group.probability <= 0.0) {
      continue;
    }
    // One mechanism per symptom set of the group's non-identity patterns
    // (a one-member group has the one pattern, at p), merging patterns
    // with identical symptoms.
    const std::uint32_t members = group.num_symbols;
    const std::uint32_t patterns = 1u << members;
    const double p_each =
        group.probability / static_cast<double>(patterns - 1);
    std::map<Symptoms, double> merged;
    for (std::uint32_t pattern = 1; pattern < patterns; ++pattern) {
      Symptoms s;
      for (std::uint32_t m = 0; m < members; ++m) {
        if ((pattern >> m) & 1) {
          s = s ^ symbol_symptoms[group.first_symbol + m];
        }
      }
      if (!s.empty()) {
        merged[s] += p_each;
      }
    }
    for (const auto& [symptoms, probability] : merged) {
      model.mechanisms.push_back(
          {probability, symptoms.detectors, symptoms.observables});
    }
  }
  return model;
}

std::string DetectorErrorModel::to_text() const {
  std::ostringstream oss;
  for (const ErrorMechanism& mech : mechanisms) {
    oss << "error(" << mech.probability << ")";
    for (const std::uint32_t d : mech.detectors) {
      oss << " D" << d;
    }
    for (const std::uint32_t k : mech.observables) {
      oss << " L" << k;
    }
    oss << '\n';
  }
  return oss.str();
}

DetectorErrorModel DetectorErrorModel::canonicalized() const {
  std::map<std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>,
           double>
      merged;
  for (const ErrorMechanism& mech : mechanisms) {
    double& p = merged[{mech.detectors, mech.observables}];
    // Two independent triggers of the same symptoms act like one
    // mechanism that fires when exactly one of them does.
    p = p * (1.0 - mech.probability) + mech.probability * (1.0 - p);
  }
  DetectorErrorModel out;
  out.num_detectors = num_detectors;
  out.num_observables = num_observables;
  for (const auto& [symptoms, probability] : merged) {
    out.mechanisms.push_back({probability, symptoms.first, symptoms.second});
  }
  return out;
}

double DetectorErrorModel::detector_probability(std::size_t d) const {
  // Independent mechanisms: P(odd # of flips) via bias product.
  double bias = 1.0;
  for (const ErrorMechanism& mech : mechanisms) {
    if (std::binary_search(mech.detectors.begin(), mech.detectors.end(),
                           static_cast<std::uint32_t>(d))) {
      bias *= 1.0 - 2.0 * mech.probability;
    }
  }
  return (1.0 - bias) / 2.0;
}

}  // namespace symphase
