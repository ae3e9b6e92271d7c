// Streaming determinism contract of the task/session API
// (src/api/): for a fixed seed, SimulatorSession output through any
// sink, at any thread count, is bit-identical to the materialized
// samplers — per-format byte-identical for WriterSink, matrix-equal for
// BitMatrixSink, chunk-reassembly-equal for CallbackSink. Companion to
// tests/parallel_sample_test.cpp, which pins the same contract for the
// materialized entry points. The Concurrent* cases race the lazy
// sampler builds and run under TSan in CI.

#include <gtest/gtest.h>

#include <latch>
#include <sstream>
#include <thread>
#include <vector>

#include "api/sample_stream.hpp"
#include "api/session.hpp"
#include "circuit/surface_code.hpp"
#include "core/symphase.hpp"
#include "reference_sampler.hpp"
#include "sampler/sample_writer.hpp"

namespace symphase {
namespace {

// Spans multiple shards plus a ragged tail word, so ordered delivery,
// shard-local RNG streams, and tail masking are all exercised.
constexpr std::size_t kShots = 2 * kSampleShardBits + 777;

// Matches the session's internal frame-reference seed, so the
// materialized FrameSimulator baselines below sample the same process.
constexpr std::uint64_t kFrameSeed = 0;

Circuit noisy_surface_circuit() {
  SurfaceCodeOptions sc;
  sc.distance = 3;
  sc.rounds = 3;
  sc.data_depolarization = 0.01;
  sc.gate_depolarization = 0.002;
  sc.measurement_flip_probability = 0.01;
  return surface_code_memory(sc);
}

/// Joint detectors+observables matrix via the materialized per-backend
/// entry points (detector rows first) — the pre-streaming reference.
template <typename Sampler>
BitMatrix materialized_joint(const Sampler& sampler, std::size_t shots,
                             std::uint64_t seed) {
  const auto events = sampler.sample_detection_events(shots, seed);
  BitMatrix joint(events.detectors.rows() + events.observables.rows(), shots);
  for (std::size_t d = 0; d < events.detectors.rows(); ++d) {
    joint.xor_words_into_row(
        {events.detectors.row(d), events.detectors.words_per_row()}, d);
  }
  for (std::size_t k = 0; k < events.observables.rows(); ++k) {
    joint.xor_words_into_row(
        {events.observables.row(k), events.observables.words_per_row()},
        events.detectors.rows() + k);
  }
  return joint;
}

std::string streamed_string(const SimulatorSession& session,
                            const SampleTask& task, SampleFormat format) {
  std::ostringstream oss;
  WriterSink sink(oss, format);
  session.run(task, sink);
  return oss.str();
}

TEST(StreamingSession, WriterSinkByteIdenticalEveryFormatSymPhase) {
  const Circuit circuit = noisy_surface_circuit();
  const SimulatorSession session(circuit);
  // Independent materialized reference: B, then M·B, shard by shard
  // (no streaming engine, no scatter).
  const BitMatrix reference =
      reference_measurements(session.compiled(), kShots, 7);

  for (const SampleFormat format :
       {SampleFormat::k01, SampleFormat::kHex, SampleFormat::kB8}) {
    const std::string expected = samples_to_string(reference, format);
    for (const std::size_t threads : {1ul, 4ul}) {
      const SampleTask task =
          SampleTask::measurements(kShots).with_seed(7).with_threads(threads);
      EXPECT_EQ(streamed_string(session, task, format), expected)
          << "format " << static_cast<int>(format) << " threads " << threads;
    }
  }
}

TEST(StreamingSession, WriterSinkByteIdenticalEveryFormatFrames) {
  const Circuit circuit = noisy_surface_circuit();
  const SimulatorSession session(circuit);
  const FrameSimulator direct(circuit, kFrameSeed);
  const BitMatrix reference = direct.sample(kShots, 11);

  for (const SampleFormat format :
       {SampleFormat::k01, SampleFormat::kHex, SampleFormat::kB8}) {
    const std::string expected = samples_to_string(reference, format);
    for (const std::size_t threads : {1ul, 4ul}) {
      const SampleTask task = SampleTask::measurements(kShots)
                                  .with_seed(11)
                                  .with_threads(threads)
                                  .with_backend(SampleBackend::kFrameSimulator);
      EXPECT_EQ(streamed_string(session, task, format), expected)
          << "format " << static_cast<int>(format) << " threads " << threads;
    }
  }
}

TEST(StreamingSession, DetectionEventsByteIdenticalBothBackends) {
  const Circuit circuit = noisy_surface_circuit();
  const SimulatorSession session(circuit);
  const std::size_t dets = session.num_detectors();
  ASSERT_GT(dets, 0u);
  ASSERT_GT(session.num_observables(), 0u);

  const BitMatrix sym_joint =
      reference_detection(session.compiled(), kShots, 13);
  const BitMatrix frame_joint =
      materialized_joint(FrameSimulator(circuit, kFrameSeed), kShots, 13);

  for (const SampleFormat format : {SampleFormat::kDets, SampleFormat::k01,
                                    SampleFormat::kB8}) {
    for (const std::size_t threads : {1ul, 4ul}) {
      SampleTask task =
          SampleTask::detection_events(kShots).with_seed(13).with_threads(
              threads);
      EXPECT_EQ(streamed_string(session, task, format),
                samples_to_string(sym_joint, format, dets))
          << "symphase, format " << static_cast<int>(format);
      task.with_backend(SampleBackend::kFrameSimulator);
      EXPECT_EQ(streamed_string(session, task, format),
                samples_to_string(frame_joint, format, dets))
          << "frames, format " << static_cast<int>(format);
    }
  }
}

TEST(StreamingSession, PackedFormatsByteIdenticalOnRaggedShotCounts) {
  // Regression for the packed-format flush path: shot counts that are
  // not a multiple of 8 (b8 records) nor 64 (ptb64 groups), below and
  // above one shard, must stream byte-identically to the materialized
  // writer — the tail padding may only ever be applied once, at the
  // true end of the run, not at shard flush boundaries.
  const Circuit circuit = noisy_surface_circuit();
  const SimulatorSession session(circuit);
  for (const std::size_t shots :
       {1ul, 7ul, 63ul, 101ul, kSampleShardBits - 1, kSampleShardBits + 9,
        2 * kSampleShardBits + 777}) {
    const BitMatrix reference =
        reference_measurements(session.compiled(), shots, 41);
    for (const SampleFormat format :
         {SampleFormat::k01, SampleFormat::kHex, SampleFormat::kB8,
          SampleFormat::kPtb64}) {
      const std::string expected = samples_to_string(reference, format);
      for (const std::size_t threads : {1ul, 4ul}) {
        const SampleTask task = SampleTask::measurements(shots)
                                    .with_seed(41)
                                    .with_threads(threads);
        EXPECT_EQ(streamed_string(session, task, format), expected)
            << "shots " << shots << " format " << static_cast<int>(format)
            << " threads " << threads;
      }
    }
  }
}

TEST(StreamingSession, Ptb64RejectsMisalignedMidStreamFlush) {
  // The WriterSink contract behind the regression above: a non-final
  // chunk covering a non-multiple of 64 shots cannot be serialized as
  // ptb64 without corrupting the stream, so the sink must refuse it.
  std::ostringstream oss;
  WriterSink sink(oss, SampleFormat::kPtb64);
  SampleStreamInfo info;
  info.bits_per_shot = 2;
  info.num_shots = 100;
  sink.begin(info);
  const BitMatrix block(2, kSampleShardBits);
  SampleChunk chunk;
  chunk.bits = &block;
  chunk.shot_offset = 0;
  chunk.num_shots = 30;  // mid-stream, not 64-aligned, not the tail
  EXPECT_THROW(sink.consume(chunk), std::invalid_argument);

  // The same ragged count as the *final* chunk is fine (tail padding).
  WriterSink tail_sink(oss, SampleFormat::kPtb64);
  SampleStreamInfo tail_info;
  tail_info.bits_per_shot = 2;
  tail_info.num_shots = 30;
  tail_sink.begin(tail_info);
  EXPECT_NO_THROW(tail_sink.consume(chunk));
}

TEST(StreamingSession, BitMatrixSinkMatchesDirectSampler) {
  const Circuit circuit = noisy_surface_circuit();
  const SimulatorSession session(circuit);
  // Stream-independent reference (full-B materialized path), so this
  // also pins that the engine-backed CompiledSampler::sample stayed
  // bit-compatible with the pre-streaming output.
  const BitMatrix expected =
      reference_measurements(session.compiled(), kShots, 17);
  for (const std::size_t threads : {1ul, 8ul}) {
    const BitMatrix streamed = session.run_to_matrix(
        SampleTask::measurements(kShots).with_seed(17).with_threads(threads));
    EXPECT_EQ(streamed, expected) << "threads " << threads;
    EXPECT_EQ(session.compiled().sample(kShots, 17, threads), expected);
  }
}

TEST(StreamingSession, CallbackSinkDeliversOrderedDisjointChunks) {
  const Circuit circuit = noisy_surface_circuit();
  const SimulatorSession session(circuit);

  SampleStreamInfo seen_info;
  BitMatrix reassembled;
  std::size_t next_shot = 0;
  std::size_t chunks = 0;
  CallbackSink sink(
      [&](const SampleChunk& chunk) {
        EXPECT_EQ(chunk.shot_offset, next_shot);
        EXPECT_GT(chunk.num_shots, 0u);
        for (std::size_t r = 0; r < reassembled.rows(); ++r) {
          for (std::size_t j = 0; j < chunk.num_shots; ++j) {
            reassembled.set(r, chunk.shot_offset + j, chunk.bits->get(r, j));
          }
        }
        next_shot += chunk.num_shots;
        ++chunks;
      },
      [&](const SampleStreamInfo& info) {
        seen_info = info;
        reassembled = BitMatrix(info.bits_per_shot, info.num_shots);
      });

  session.run(SampleTask::measurements(kShots).with_seed(23).with_threads(4),
              sink);
  EXPECT_EQ(seen_info.num_shots, kShots);
  EXPECT_EQ(seen_info.bits_per_shot, circuit.num_measurements());
  EXPECT_EQ(next_shot, kShots);
  EXPECT_EQ(chunks, num_sample_shards(kShots));
  EXPECT_EQ(reassembled, session.compiled().sample(kShots, 23));
}

TEST(StreamingSession, BitSelectionExtractsMatchingRows) {
  const Circuit circuit = noisy_surface_circuit();
  const SimulatorSession session(circuit);
  const BitMatrix full = session.compiled().sample(kShots, 29);
  const std::vector<std::size_t> rows = {0, 3, 7, full.rows() - 1};

  const BitMatrix subset = session.run_to_matrix(
      SampleTask::measurements(kShots).with_seed(29).with_bit_selection(rows));
  ASSERT_EQ(subset.rows(), rows.size());
  ASSERT_EQ(subset.cols(), kShots);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t w = 0; w < words_for_bits(kShots); ++w) {
      ASSERT_EQ(subset.row(i)[w], full.row(rows[i])[w])
          << "selected row " << rows[i] << " word " << w;
    }
  }
}

TEST(StreamingSession, BitSelectionSplitsDetectorPrefix) {
  // Selecting 2 detectors + the observable: the dets rendering must
  // relabel the observable as L0 after the two D rows.
  const Circuit circuit = noisy_surface_circuit();
  const SimulatorSession session(circuit);
  const std::size_t dets = session.num_detectors();
  const std::vector<std::size_t> rows = {1, dets - 1, dets};

  std::ostringstream oss;
  WriterSink sink(oss, SampleFormat::kDets);
  session.run(SampleTask::detection_events(kShots)
                  .with_seed(31)
                  .with_bit_selection(rows),
              sink);
  const BitMatrix joint = reference_detection(session.compiled(), kShots, 31);
  BitMatrix expected_rows(rows.size(), kShots);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    expected_rows.xor_words_into_row(
        {joint.row(rows[i]), joint.words_per_row()}, i);
  }
  EXPECT_EQ(oss.str(),
            samples_to_string(expected_rows, SampleFormat::kDets, 2));
}

TEST(StreamingSession, RejectsOutOfRangeSelection) {
  const Circuit circuit = noisy_surface_circuit();
  const SimulatorSession session(circuit);
  BitMatrixSink sink;
  EXPECT_THROW(
      session.run(SampleTask::measurements(64).with_bit_selection(
                      {circuit.num_measurements()}),
                  sink),
      std::invalid_argument);
  EXPECT_THROW(
      session.run(SampleTask::measurements(64).with_bit_selection({3, 3}),
                  sink),
      std::invalid_argument);
}

TEST(StreamingSession, EdgeShotCounts) {
  const Circuit circuit = noisy_surface_circuit();
  const SimulatorSession session(circuit);

  // Zero shots: begin/end still fire, matrix is rows x 0.
  const BitMatrix empty =
      session.run_to_matrix(SampleTask::measurements(0).with_seed(1));
  EXPECT_EQ(empty.rows(), circuit.num_measurements());
  EXPECT_EQ(empty.cols(), 0u);

  // Sub-shard run: one chunk, identical to the materialized sampler.
  const BitMatrix small =
      session.run_to_matrix(SampleTask::measurements(100).with_seed(1));
  EXPECT_EQ(small, session.compiled().sample(100, 1));

  // Exact shard multiple: no ragged tail.
  const BitMatrix exact = session.run_to_matrix(
      SampleTask::measurements(kSampleShardBits).with_seed(1));
  EXPECT_EQ(exact, session.compiled().sample(kSampleShardBits, 1));
}

TEST(StreamingSession, FrameDetectionMatchesMaterializedEvents) {
  // The per-shard detector fold must reproduce the materialized
  // FrameSimulator::sample_detection_events split exactly.
  const Circuit circuit = noisy_surface_circuit();
  const SimulatorSession session(circuit);
  const FrameSimulator direct(circuit, kFrameSeed);
  const auto events = direct.sample_detection_events(kShots, 37);

  const BitMatrix joint = session.run_to_matrix(
      SampleTask::detection_events(kShots).with_seed(37).with_backend(
          SampleBackend::kFrameSimulator));
  ASSERT_EQ(joint.rows(), events.detectors.rows() + events.observables.rows());
  for (std::size_t d = 0; d < events.detectors.rows(); ++d) {
    for (std::size_t w = 0; w < words_for_bits(kShots); ++w) {
      ASSERT_EQ(joint.row(d)[w], events.detectors.row(d)[w]);
    }
  }
  for (std::size_t k = 0; k < events.observables.rows(); ++k) {
    for (std::size_t w = 0; w < words_for_bits(kShots); ++w) {
      ASSERT_EQ(joint.row(events.detectors.rows() + k)[w],
                events.observables.row(k)[w]);
    }
  }
}

TEST(StreamingSession, ShardBlocksKeptForTheThreadsNextRunOnly) {
  // A run that returns normally leaves its blocks to the thread, and the
  // next run of the same geometry gets them back, bits and all.
  { ShardBlocks run(2, 3); run[1].set(2, 5, true); }
  {
    ShardBlocks run(2, 3);
    EXPECT_TRUE(run[1].get(2, 5));
  }
  // A set of another geometry frees them before it allocates.
  { ShardBlocks other(1, 4); }
  {
    ShardBlocks run(2, 3);
    EXPECT_FALSE(run[1].get(2, 5));
  }
  // Nested sets of one run (a session's scratch around the engine's
  // blocks) are all kept.
  {
    ShardBlocks scratch(1, 4);
    ShardBlocks run(2, 3);
    scratch[0].set(3, 1, true);
    run[1].set(2, 5, true);
  }
  {
    ShardBlocks scratch(1, 4);
    ShardBlocks run(2, 3);
    EXPECT_TRUE(scratch[0].get(3, 1));
    EXPECT_TRUE(run[1].get(2, 5));
  }
  // A run that throws keeps nothing.
  EXPECT_THROW(
      {
        ShardBlocks run(2, 3);
        throw TaskCancelled();
      },
      TaskCancelled);
  {
    ShardBlocks run(2, 3);
    EXPECT_FALSE(run[1].get(2, 5));
  }
}

TEST(StreamingSession, KeptBlocksLeaveOutputUnchanged) {
  // Runs on one thread reuse its blocks, stale bits included: a ragged
  // sub-shard run after a full one, and frame-backend detection runs that
  // also reuse their scratch, read the same as on a fresh thread.
  const SimulatorSession session(noisy_surface_circuit());
  const auto frames_detect = [](std::size_t shots, std::uint64_t seed) {
    return SampleTask::detection_events(shots)
        .with_seed(seed)
        .with_threads(1)
        .with_backend(SampleBackend::kFrameSimulator);
  };
  const std::vector<SampleTask> tasks = {
      SampleTask::measurements(kShots).with_seed(3).with_threads(1),
      SampleTask::measurements(100).with_seed(4).with_threads(1),
      frames_detect(kShots, 5),
      frames_detect(100, 6),
  };
  for (const SampleTask& task : tasks) {
    BitMatrix fresh;
    std::thread([&] { fresh = session.run_to_matrix(task); }).join();
    EXPECT_EQ(session.run_to_matrix(task), fresh);
  }
}

/// Whether `block` holds shard `shard` of the `shots`-shot `reference`.
bool block_matches(const BitMatrix& block, const BitMatrix& reference,
                   std::size_t shard, std::size_t shots) {
  const ShardExtent e = sample_shard_extent(shard, shots);
  for (std::size_t r = 0; r < reference.rows(); ++r) {
    for (std::size_t w = 0; w < e.words; ++w) {
      if (block.row(r)[w] != reference.row(r)[e.word0 + w]) {
        return false;
      }
    }
  }
  return true;
}

TEST(StreamingSession, ConcurrentFirstUseOfAFreshCompiledSampler) {
  // Eight threads make their first calls on one fresh CompiledSampler
  // at once, half of them measurement-first and half detection-first,
  // so both lazy sampler builds are raced; every thread must see the
  // reference bits.
  const Circuit circuit = noisy_surface_circuit();
  const CompiledSampler cs = CompiledSampler::compile(circuit);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRunShots = 2 * kSampleShardBits + 777;
  constexpr std::uint64_t kSeed = 43;
  const BitMatrix measurements = reference_measurements(cs, kRunShots, kSeed);
  const BitMatrix detection = reference_detection(cs, kRunShots, kSeed);
  const CompiledSampler twin = CompiledSampler::compile(circuit);
  std::vector<double> expected_p;
  for (std::size_t t = 0; t < kThreads; ++t) {
    expected_p.push_back(twin.detector_probability(t % cs.num_detectors()));
  }

  std::latch start(kThreads);
  std::vector<int> ok(kThreads, 0);
  std::vector<double> p(kThreads, -1);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t shard = t % num_sample_shards(kRunShots);
      BitMatrix m_block(cs.num_measurements(), kSampleShardBits);
      BitMatrix d_block(cs.num_detectors() + cs.num_observables(),
                        kSampleShardBits);
      start.arrive_and_wait();
      if (t % 2 == 0) {
        cs.sample_shard_block(shard, kRunShots, kSeed, m_block);
        cs.sample_detection_shard_block(shard, kRunShots, kSeed, d_block);
      } else {
        cs.sample_detection_shard_block(shard, kRunShots, kSeed, d_block);
        cs.sample_shard_block(shard, kRunShots, kSeed, m_block);
      }
      p[t] = cs.detector_probability(t % cs.num_detectors());
      ok[t] = block_matches(m_block, measurements, shard, kRunShots) &&
              block_matches(d_block, detection, shard, kRunShots);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[t]) << "thread " << t;
    EXPECT_EQ(p[t], expected_p[t]) << "thread " << t;
  }
}

TEST(StreamingSession, ConcurrentFirstTasksOnAFreshSession) {
  // A measurement task and a detection task start together on one
  // fresh session: the compile and both sampler builds race.
  const Circuit circuit = noisy_surface_circuit();
  const SimulatorSession session(circuit);
  std::latch start(2);
  BitMatrix measurements;
  BitMatrix detection;
  std::thread a([&] {
    start.arrive_and_wait();
    measurements = session.run_to_matrix(
        SampleTask::measurements(kShots).with_seed(47).with_threads(2));
  });
  std::thread b([&] {
    start.arrive_and_wait();
    detection = session.run_to_matrix(
        SampleTask::detection_events(kShots).with_seed(47).with_threads(2));
  });
  a.join();
  b.join();
  EXPECT_EQ(measurements,
            reference_measurements(session.compiled(), kShots, 47));
  EXPECT_EQ(detection, reference_detection(session.compiled(), kShots, 47));
}

}  // namespace
}  // namespace symphase
