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

/// Builds `artifact` with `make` unless it exists, under `mutex` and a
/// `span` trace span. Returns whether this call built it. An artifact
/// is never reset, so once built it is read without the lock.
template <typename T, typename Make>
bool build_once(std::mutex& mutex, std::unique_ptr<T>& artifact,
                const char* span, Make make) {
  const std::lock_guard<std::mutex> lock(mutex);
  if (artifact) {
    return false;
  }
  trace::Span build_span(span);
  artifact = make();
  return true;
}

}  // namespace

SimulatorSession::SimulatorSession(Circuit circuit)
    : circuit_(std::move(circuit)) {}

bool SimulatorSession::build_compiled() const {
  return build_once(build_mutex_, compiled_, "build_compiled", [this] {
    return std::make_unique<CompiledSampler>(
        CompiledSampler::compile(circuit_));
  });
}

bool SimulatorSession::build_frames() const {
  return build_once(build_mutex_, frames_, "build_frames", [this] {
    return std::make_unique<FrameSimulator>(circuit_, kFrameReferenceSeed);
  });
}

const CompiledSampler& SimulatorSession::compiled() const {
  build_compiled();
  return *compiled_;
}

const FrameSimulator& SimulatorSession::frames() const {
  build_frames();
  return *frames_;
}

const DetectorLayout& SimulatorSession::detector_layout() const {
  build_once(build_mutex_, layout_, "build_layout", [this] {
    return std::make_unique<DetectorLayout>(resolve_detectors(circuit_));
  });
  return *layout_;
}

SessionArtifacts SimulatorSession::prepare(const SampleTask& task) const {
  const bool measurements = task.target == SampleTarget::kMeasurements;
  if (!measurements) {
    detector_layout();
  }
  SessionArtifacts built;
  if (task.backend == SampleBackend::kSymPhase) {
    built.compiled = build_compiled();
    if (measurements) {
      compiled_->measurement_sampler();
    } else {
      compiled_->detection_sampler();
    }
  } else {
    built.frames = build_frames();
  }
  return built;
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
      const SymPhaseSampler& sampler = compiled().measurement_sampler();
      spec.bits_per_shot = sampler.num_measurements();
      stream_sample_blocks(
          spec,
          [&](std::size_t, std::size_t shard, BitMatrix& block) {
            sampler.sample_shard_block(shard, task.shots, task.seed, block);
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
    const SymPhaseSampler& sampler = compiled().detection_sampler();
    stream_sample_blocks(
        spec,
        [&](std::size_t, std::size_t shard, BitMatrix& block) {
          sampler.sample_shard_block(shard, task.shots, task.seed, block);
        },
        sink);
    return;
  }

  // Frame backend: sample the shard's measurements, then fold them
  // through the resolved detector/observable definitions. The fold is
  // word-wise per row, so folding one shard block reproduces exactly
  // that word range of FrameSimulator::sample_detection_events. The
  // measurement scratch is hoisted out of the fill and keyed by engine
  // slot: one block per concurrent fill, kept for the thread's next run
  // like the engine's own blocks.
  const FrameSimulator& fs = frames();
  ShardBlocks scratch(stream_fill_slots(spec), fs.num_measurements());
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

}  // namespace symphase
