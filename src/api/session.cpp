#include "api/session.hpp"

#include <utility>

#include "api/sample_stream.hpp"
#include "common/parallel.hpp"
#include "common/simd_word.hpp"
#include "common/trace.hpp"

namespace symphase {

namespace {

/// Reference-run seed for the lazily built FrameSimulator. Any fixed
/// value yields the correct distribution (the reference record only
/// anchors the frames); pinning it keeps session output a function of
/// the task alone.
constexpr std::uint64_t kFrameReferenceSeed = 0;

}  // namespace

SimulatorSession::SimulatorSession(Circuit circuit, CompileOptions options)
    : circuit_(std::move(circuit)), options_(options) {}

const CompiledSampler& SimulatorSession::compiled() const {
  const std::lock_guard<std::mutex> lock(build_mutex_);
  if (!compiled_) {
    trace::Span build_span("build_compiled");
    compiled_ = std::make_unique<CompiledSampler>(
        CompiledSampler::compile(circuit_, options_));
    compiled_built_.store(true, std::memory_order_release);
  }
  return *compiled_;
}

const FrameSimulator& SimulatorSession::frames() const {
  const std::lock_guard<std::mutex> lock(build_mutex_);
  if (!frames_) {
    trace::Span build_span("build_frames");
    frames_ = std::make_unique<FrameSimulator>(circuit_, kFrameReferenceSeed);
    frames_built_.store(true, std::memory_order_release);
  }
  return *frames_;
}

const DetectorLayout& SimulatorSession::detector_layout() const {
  const std::lock_guard<std::mutex> lock(build_mutex_);
  if (!layout_) {
    trace::Span build_span("build_layout");
    layout_ = std::make_unique<DetectorLayout>(resolve_detectors(circuit_));
    layout_built_.store(true, std::memory_order_release);
  }
  return *layout_;
}

void SimulatorSession::prepare(const SampleTask& task) const {
  if (task.target != SampleTarget::kMeasurements) {
    detector_layout();
  }
  if (task.backend == SampleBackend::kSymPhase) {
    compiled();
  } else {
    frames();
  }
}

std::size_t SimulatorSession::num_detectors() const {
  return detector_layout().detectors.size();
}

std::size_t SimulatorSession::num_observables() const {
  return detector_layout().observables.size();
}

std::size_t SimulatorSession::record_bits(const SampleTask& task) const {
  if (task.target == SampleTarget::kMeasurements) {
    return circuit_.num_measurements();
  }
  return num_detectors() + num_observables();
}

void SimulatorSession::run(const SampleTask& task, SampleSink& sink,
                           const std::atomic<bool>* cancel,
                           std::uint64_t trace_id,
                           std::uint64_t trace_ticket) const {
  StreamSpec spec;
  spec.num_shots = task.shots;
  spec.num_threads = task.num_threads;
  spec.bit_selection = task.bit_selection;
  spec.cancel = cancel;
  spec.trace_id = trace_id;
  spec.trace_ticket = trace_ticket;

  if (task.target == SampleTarget::kMeasurements) {
    if (task.backend == SampleBackend::kSymPhase) {
      const CompiledSampler& cs = compiled();
      spec.bits_per_shot = cs.num_measurements();
      stream_sample_blocks(
          spec,
          [&](std::size_t, std::size_t shard, BitMatrix& block) {
            cs.sample_shard_block(shard, task.shots, task.seed, block);
          },
          sink);
      return;
    }
    const FrameSimulator& fs = frames();
    spec.bits_per_shot = fs.num_measurements();
    stream_sample_blocks(
        spec,
        [&](std::size_t, std::size_t shard, BitMatrix& block) {
          fs.sample_shard_block(shard, task.shots, task.seed, block);
        },
        sink);
    return;
  }

  // Detection events: detectors first, observables after — the joint
  // record layout shared with CompiledSampler::sample_detection_events
  // and the dets writer format.
  const DetectorLayout& layout = detector_layout();
  spec.bits_per_shot = layout.detectors.size() + layout.observables.size();
  spec.num_detectors = layout.detectors.size();

  if (task.backend == SampleBackend::kSymPhase) {
    const CompiledSampler& cs = compiled();
    stream_sample_blocks(
        spec,
        [&](std::size_t, std::size_t shard, BitMatrix& block) {
          cs.sample_detection_shard_block(shard, task.shots, task.seed, block);
        },
        sink);
    return;
  }

  // Frame backend: sample the shard's measurements, then fold them
  // through the resolved detector/observable definitions. The fold is
  // word-wise per row, so folding one shard block reproduces exactly
  // that word range of FrameSimulator::sample_detection_events. The
  // measurement scratch is hoisted out of the fill and keyed by engine
  // slot — one allocation per concurrent fill for the whole run, not
  // one per shard.
  const FrameSimulator& fs = frames();
  std::vector<BitMatrix> scratch(
      stream_fill_slots(spec),
      BitMatrix(fs.num_measurements(), kSampleShardBits));
  stream_sample_blocks(
      spec,
      [&](std::size_t slot, std::size_t shard, BitMatrix& block) {
        const ShardExtent e = sample_shard_extent(shard, task.shots);
        BitMatrix& measurements = scratch[slot];
        fs.sample_shard_block(shard, task.shots, task.seed, measurements);
        block.clear_all();
        const auto fold = [&](const std::vector<std::vector<std::size_t>>& defs,
                              std::size_t row0) {
          for (std::size_t d = 0; d < defs.size(); ++d) {
            for (const std::size_t m : defs[d]) {
              wide::xor_words(block.row(row0 + d), measurements.row(m),
                              e.words);
            }
          }
        };
        fold(layout.detectors, 0);
        fold(layout.observables, layout.detectors.size());
      },
      sink);
}

BitMatrix SimulatorSession::run_to_matrix(const SampleTask& task) const {
  BitMatrixSink sink;
  run(task, sink);
  return sink.take();
}

SessionArtifacts SimulatorSession::artifacts() const {
  SessionArtifacts a;
  a.compiled = compiled_built_.load(std::memory_order_acquire);
  a.frames = frames_built_.load(std::memory_order_acquire);
  a.layout = layout_built_.load(std::memory_order_acquire);
  return a;
}

void SimulatorSession::reset() {
  const std::lock_guard<std::mutex> lock(build_mutex_);
  compiled_.reset();
  frames_.reset();
  layout_.reset();
  compiled_built_.store(false, std::memory_order_release);
  frames_built_.store(false, std::memory_order_release);
  layout_built_.store(false, std::memory_order_release);
}

}  // namespace symphase
