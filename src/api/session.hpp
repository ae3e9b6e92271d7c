#pragma once

/// \file session.hpp
/// SimulatorSession — the long-lived half of the task/sink API.
///
/// A session owns one circuit and every compiled artifact derived from
/// it: the SymPhase symbolic compilation (CompiledSampler), the
/// Pauli-frame baseline (FrameSimulator), and the resolved
/// detector/observable layout. Each is built lazily on first use and
/// reused across every subsequent task, which is exactly Algorithm 1's
/// compile-once/sample-many split lifted to a serving shape: keep one
/// session per circuit, throw SampleTasks at it.
///
///   SimulatorSession session(parse_circuit_file("surface.stim"));
///   WriterSink sink(std::cout, SampleFormat::kB8);
///   session.run(SampleTask::measurements(10'000'000).with_seed(1), sink);
///
/// run() streams shard-by-shard (bounded memory, see sample_stream.hpp);
/// run_to_matrix() is the materializing convenience. Sampled bits depend
/// only on (task.seed, task.shots, backend) — never on thread count,
/// sink choice, or how previous tasks exercised the session.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "api/sample_sink.hpp"
#include "api/sample_task.hpp"
#include "core/symphase.hpp"

namespace symphase {

/// Which of a session's lazily built artifacts one prepare() call
/// built. Each artifact is built by exactly one call, so the service
/// counts its `compiles` and `frame_builds` from these: "how many
/// compiles did N requests cost" is directly observable.
struct SessionArtifacts {
  bool compiled = false;  ///< CompiledSampler (symbolic compilation) built.
  bool frames = false;    ///< FrameSimulator baseline built.
};

class SimulatorSession {
 public:
  /// Takes the circuit by value; compilation is deferred until a task
  /// needs the corresponding backend.
  explicit SimulatorSession(Circuit circuit);

  const Circuit& circuit() const { return circuit_; }

  /// The compiled symbolic sampler (kSymPhase backend). Built on first
  /// call, then cached for the session's lifetime.
  const CompiledSampler& compiled() const;

  /// The frame-propagation baseline (kFrameSimulator backend). The
  /// reference run uses a fixed internal seed; per-task seeds only drive
  /// the frame randomness, like every other sampler seed.
  const FrameSimulator& frames() const;

  /// Circuit-level record geometry (resolved once, no compilation).
  std::size_t num_detectors() const;
  std::size_t num_observables() const;
  /// Bits per shot the task's record carries before bit selection:
  /// measurements, or detectors + observables.
  std::size_t record_bits(const SampleTask& task) const;

  /// Executes the task, streaming shard-sized chunks into `sink` in shot
  /// order. Validates the task (selection bounds, detection targets on
  /// circuits without annotations produce a zero-row stream).
  ///
  /// `cancel`, when non-null, must outlive the call; setting it makes
  /// the stream raise TaskCancelled at the next shard-chunk boundary
  /// (see sample_stream.hpp). The session itself stays valid and
  /// reusable — cancellation abandons the one run, not the compiled
  /// artifacts. `trace_id`/`trace_ticket` stamp the run's per-shard fill
  /// spans with the serving stack's request identity (StreamSpec).
  void run(const SampleTask& task, SampleSink& sink,
           const std::atomic<bool>* cancel = nullptr,
           std::uint64_t trace_id = 0, std::uint64_t trace_ticket = 0) const;

  /// Forces the artifacts `task` will need (compiled sampler and the
  /// shard sampler of the task's record, frame baseline, detector
  /// layout) to exist — exactly the lazy builds run() would trigger.
  /// Lets a caller bracket the compile stage (trace spans, stage
  /// histograms) separately from execution; a second call is a cheap
  /// mutex acquire + pointer checks. Returns which of the compiled
  /// sampler and the frame baseline this call built (none when another
  /// call already had).
  SessionArtifacts prepare(const SampleTask& task) const;

  /// Convenience: run() into a BitMatrixSink and return the matrix
  /// (measurement-major, like CompiledSampler::sample).
  BitMatrix run_to_matrix(const SampleTask& task) const;

 private:
  const DetectorLayout& detector_layout() const;
  /// Build the artifact unless it exists; true when this call built it.
  bool build_compiled() const;
  bool build_frames() const;

  Circuit circuit_;
  /// Guards lazy construction only; built artifacts are immutable and
  /// read concurrently.
  mutable std::mutex build_mutex_;
  mutable std::unique_ptr<CompiledSampler> compiled_;
  mutable std::unique_ptr<FrameSimulator> frames_;
  mutable std::unique_ptr<DetectorLayout> layout_;
};

}  // namespace symphase
