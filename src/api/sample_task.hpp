#pragma once

/// \file sample_task.hpp
/// Request description for the streaming sampling API.
///
/// A SampleTask says *what* to sample — the target record (raw
/// measurements, or detection events = detectors followed by logical
/// observables), the shot count, seed, thread budget, backend algorithm,
/// and an optional row subset. It says nothing about where the results
/// go; that is the SampleSink's job (sample_sink.hpp), and a
/// SimulatorSession (session.hpp) connects the two. Tasks are cheap
/// value objects: build one per request, reuse the session across
/// requests (Algorithm 1's compile-once/sample-many split).
///
///   SampleTask task = SampleTask::detection_events(1'000'000)
///                         .with_seed(42)
///                         .with_threads(8);
///   session.run(task, sink);

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/enum_names.hpp"

namespace symphase {

/// Which record a task samples.
enum class SampleTarget {
  /// All measurement outcomes, in record order.
  kMeasurements,
  /// Detector parities followed by logical-observable parities (the
  /// joint layout the `dets` format and decoders consume).
  kDetectionEvents,
};

/// Which sampling algorithm serves the task. Both honor the shard/RNG
/// determinism contract, but they are distinct generators: equal seeds
/// give different (equally distributed) bits across backends.
enum class SampleBackend {
  /// The paper's compiled symbolic sampler (compile once, multiply per
  /// batch). Default.
  kSymPhase,
  /// Pauli-frame propagation (the Stim-style baseline): re-traverses the
  /// circuit per shard, no compilation pass beyond the reference run.
  kFrameSimulator,
};

/// The backends' names on the CLI and the wire.
inline constexpr EnumNames<SampleBackend, 2> kBackendNames{
    "backend", {"symphase", "frames"}};

constexpr std::string_view backend_name(SampleBackend backend) {
  return kBackendNames.name(backend);
}

/// Parses backend_name()'s names; throws std::invalid_argument.
inline SampleBackend backend_from_name(std::string_view name) {
  return kBackendNames.from_name(name);
}

/// A value-type description of one sampling request.
struct SampleTask {
  SampleTarget target = SampleTarget::kMeasurements;
  SampleBackend backend = SampleBackend::kSymPhase;
  std::size_t shots = 0;
  std::uint64_t seed = 0;
  /// Worker-thread cap; 0 = hardware concurrency. Never affects the
  /// sampled bits, only wall-clock time.
  std::size_t num_threads = 0;
  /// Optional row subset: indices into the target's record (measurement
  /// indices, or joint detector/observable indices with observables
  /// numbered after detectors). Must be sorted and duplicate-free; empty
  /// means all rows. Applied after sampling, so the emitted bits for a
  /// row match the full-record run exactly.
  std::vector<std::size_t> bit_selection;

  static SampleTask measurements(std::size_t shots) {
    SampleTask task;
    task.target = SampleTarget::kMeasurements;
    task.shots = shots;
    return task;
  }

  static SampleTask detection_events(std::size_t shots) {
    SampleTask task;
    task.target = SampleTarget::kDetectionEvents;
    task.shots = shots;
    return task;
  }

  SampleTask& with_seed(std::uint64_t s) {
    seed = s;
    return *this;
  }

  SampleTask& with_threads(std::size_t n) {
    num_threads = n;
    return *this;
  }

  SampleTask& with_backend(SampleBackend b) {
    backend = b;
    return *this;
  }

  SampleTask& with_bit_selection(std::vector<std::size_t> rows) {
    bit_selection = std::move(rows);
    return *this;
  }
};

}  // namespace symphase
