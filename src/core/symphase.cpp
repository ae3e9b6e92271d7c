#include "core/symphase.hpp"

#include <sstream>

#include "api/sample_sink.hpp"
#include "api/sample_stream.hpp"
#include "common/simd_word.hpp"
#include "common/trace.hpp"

namespace symphase {

std::vector<std::uint32_t> xor_symbol_lists(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  out.reserve(a.size() + b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      out.push_back(a[i++]);
    } else if (b[j] < a[i]) {
      out.push_back(b[j++]);
    } else {
      ++i;  // equal symbols cancel over F2
      ++j;
    }
  }
  out.insert(out.end(), a.begin() + static_cast<std::ptrdiff_t>(i), a.end());
  out.insert(out.end(), b.begin() + static_cast<std::ptrdiff_t>(j), b.end());
  return out;
}

namespace {

/// Detector/observable expressions: XOR of the referenced measurements'
/// symbolic expressions.
std::vector<MeasurementExpression> combine_expressions(
    const std::vector<std::vector<std::size_t>>& index_lists,
    const std::vector<MeasurementExpression>& measurements,
    const SymbolTable& symbols, const char* what) {
  std::vector<MeasurementExpression> out;
  out.reserve(index_lists.size());
  for (const auto& indices : index_lists) {
    MeasurementExpression combined;
    for (const std::size_t m : indices) {
      SYMPHASE_CHECK(m < measurements.size());
      combined.symbols =
          xor_symbol_lists(combined.symbols, measurements[m].symbols);
    }
    // A detector/observable must be deterministic in the absence of
    // faults: a surviving measurement coin means the declared parity is
    // not actually fixed by the circuit.
    for (const std::uint32_t sym : combined.symbols) {
      SYMPHASE_CHECK_MSG(
          symbols.group_of(sym).kind != SymbolGroupKind::kCoin,
          what << " " << out.size()
               << " is not deterministic: its parity depends on the random "
                  "measurement coin s"
               << sym);
    }
    out.push_back(std::move(combined));
  }
  return out;
}

}  // namespace

CompiledSampler CompiledSampler::compile(const Circuit& circuit) {
  CompiledSampler result;
  {
    // Scoped: the tableau is freed before the detectors are combined.
    // The span's aux is the pass's phase tile-column count.
    trace::Span pass_span("init_pass");
    DefaultSymPhaseCompiler compiler(circuit);
    pass_span.set_aux(ceil_div(compiler.symbols().num_symbols(),
                               BlockedTableau::kTileBits));
    result.symbols_ = std::make_unique<SymbolTable>(compiler.take_symbols());
    result.expressions_ = compiler.take_expressions();
  }

  const DetectorLayout layout = resolve_detectors(circuit);
  result.detector_expressions_ = combine_expressions(
      layout.detectors, result.expressions_, *result.symbols_, "DETECTOR");
  result.observable_expressions_ = combine_expressions(
      layout.observables, result.expressions_, *result.symbols_, "OBSERVABLE");
  return result;
}

namespace {

/// Returns `lazy`'s sampler, building it with `make` on the first call;
/// `record` (0 = measurements, 1 = detection) tags the build's span.
template <typename Lazy, typename Make>
const SymPhaseSampler& build_once(Lazy& lazy, std::uint64_t record,
                                  Make&& make) {
  const std::lock_guard<std::mutex> lock(lazy.mutex);
  if (!lazy.sampler) {
    const trace::Span span("build_sampler", 0, 0, record);
    lazy.sampler = make();
  }
  return *lazy.sampler;
}

}  // namespace

const SymPhaseSampler& CompiledSampler::measurement_sampler() const {
  return build_once(*measurement_sampler_, 0, [&] {
    return std::make_unique<const SymPhaseSampler>(*symbols_, expressions_);
  });
}

const SymPhaseSampler& CompiledSampler::detection_sampler() const {
  return build_once(*detection_sampler_, 1, [&] {
    return std::make_unique<const SymPhaseSampler>(
        *symbols_, detector_expressions_, observable_expressions_);
  });
}

void CompiledSampler::sample_shard_block(std::size_t shard,
                                         std::size_t num_samples,
                                         std::uint64_t seed,
                                         BitMatrix& block) const {
  measurement_sampler().sample_shard_block(shard, num_samples, seed, block);
}

void CompiledSampler::sample_detection_shard_block(std::size_t shard,
                                                   std::size_t num_samples,
                                                   std::uint64_t seed,
                                                   BitMatrix& block) const {
  detection_sampler().sample_shard_block(shard, num_samples, seed, block);
}

CompiledSampler::DetectionEvents CompiledSampler::sample_detection_events(
    std::size_t num_samples, std::uint64_t seed,
    std::size_t num_threads) const {
  // Thin wrapper over the streaming engine: materialize the joint task
  // into a BitMatrixSink, then split the detector/observable bands.
  StreamSpec spec;
  spec.bits_per_shot = num_detectors() + num_observables();
  spec.num_detectors = num_detectors();
  spec.num_shots = num_samples;
  spec.num_threads = num_threads;
  BitMatrixSink sink;
  stream_sample_blocks(
      spec,
      [&](std::size_t, std::size_t shard, BitMatrix& block) {
        sample_detection_shard_block(shard, num_samples, seed, block);
      },
      sink);
  const BitMatrix joint = sink.take();
  DetectionEvents events{
      BitMatrix(num_detectors(), num_samples),
      BitMatrix(num_observables(), num_samples),
  };
  for (std::size_t d = 0; d < num_detectors(); ++d) {
    wide::copy_words(events.detectors.row(d), joint.row(d),
                     joint.words_per_row());
  }
  for (std::size_t k = 0; k < num_observables(); ++k) {
    wide::copy_words(events.observables.row(k), joint.row(num_detectors() + k),
                     joint.words_per_row());
  }
  return events;
}

double CompiledSampler::detector_probability(std::size_t d) const {
  SYMPHASE_CHECK(d < num_detectors());
  return symphase::outcome_probability(*symbols_,
                                       detector_expressions_[d].symbols);
}

double CompiledSampler::observable_probability(std::size_t k) const {
  SYMPHASE_CHECK(k < num_observables());
  return symphase::outcome_probability(*symbols_,
                                       observable_expressions_[k].symbols);
}

std::size_t CompiledSampler::num_measurements() const {
  return expressions_.size();
}

std::size_t CompiledSampler::num_symbols() const {
  return symbols_->num_symbols();
}

std::size_t CompiledSampler::expression_nnz() const {
  std::size_t total = 0;
  for (const auto& e : expressions_) {
    total += e.symbols.size();
  }
  return total;
}

BitMatrix CompiledSampler::sample(std::size_t num_samples, std::uint64_t seed,
                                  std::size_t num_threads) const {
  // Thin wrapper over the streaming engine with a materializing sink;
  // the shard/RNG contract makes this bit-identical to the historical
  // full-matrix path (tests/streaming_session_test.cpp pins it).
  StreamSpec spec;
  spec.bits_per_shot = num_measurements();
  spec.num_shots = num_samples;
  spec.num_threads = num_threads;
  BitMatrixSink sink;
  stream_sample_blocks(
      spec,
      [&](std::size_t, std::size_t shard, BitMatrix& block) {
        sample_shard_block(shard, num_samples, seed, block);
      },
      sink);
  return sink.take();
}

double CompiledSampler::outcome_probability(std::size_t k) const {
  SYMPHASE_CHECK(k < num_measurements());
  return symphase::outcome_probability(*symbols_, expressions_[k].symbols);
}

BitMatrix sample_circuit(const Circuit& circuit, std::size_t num_samples,
                         std::uint64_t seed) {
  return CompiledSampler::compile(circuit).sample(num_samples, seed);
}

std::string expression_to_string(const MeasurementExpression& expr) {
  if (expr.symbols.empty()) {
    return "0";
  }
  std::ostringstream oss;
  bool first = true;
  for (const std::uint32_t s : expr.symbols) {
    if (!first) {
      oss << " ^ ";
    }
    first = false;
    if (s == 0) {
      oss << "1";
    } else {
      oss << "s" << s;
    }
  }
  return oss.str();
}

}  // namespace symphase
