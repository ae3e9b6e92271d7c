#pragma once

/// \file sample_sink.hpp
/// Where streamed sample results go.
///
/// The streaming engine (sample_stream.hpp) cuts a run's shot axis into
/// the library-wide 128-word shards, fills shard blocks in parallel, and
/// delivers them to one SampleSink *in shot order*. A sink sees:
///
///   begin(info)            once, before any data
///   consume(chunk)         once per shard, chunks cover [0, num_shots)
///                          in ascending, non-overlapping shot ranges
///   end()                  once, after the last chunk
///
/// Chunks reference engine-owned scratch that is only valid during the
/// consume() call — copy what must outlive it. Because shard contents
/// are bit-identical to the corresponding word range of the materialized
/// matrix, a sink that concatenates chunks reproduces
/// CompiledSampler::sample() exactly (tests/streaming_session_test.cpp
/// pins this byte-for-byte for every writer format).

#include <cstddef>
#include <functional>
#include <ostream>

#include "bitvec/bit_matrix.hpp"
#include "sampler/sample_writer.hpp"

namespace symphase {

/// Per-run metadata handed to SampleSink::begin.
struct SampleStreamInfo {
  /// Rows per chunk = bits per shot record (after any bit selection).
  std::size_t bits_per_shot = 0;
  /// Rows rendered as detectors; rows >= this are logical observables.
  /// Equals bits_per_shot for measurement runs.
  std::size_t num_detectors = 0;
  /// Total shots the run will deliver across all chunks.
  std::size_t num_shots = 0;
};

/// One shard's worth of samples, measurement-major like every sample
/// matrix in the library: row k of `bits` is record bit k across the
/// chunk's shots, shot j of the chunk at column j.
struct SampleChunk {
  /// Block matrix; only columns [0, num_shots) are meaningful (the
  /// engine reuses fixed-width shard scratch, so cols() may be larger).
  const BitMatrix* bits = nullptr;
  /// Global index of the chunk's first shot. Always a multiple of
  /// kSampleShardBits, i.e. word-aligned on the shot axis.
  std::size_t shot_offset = 0;
  /// Valid shots in this chunk.
  std::size_t num_shots = 0;
};

/// Consumer interface for streamed samples.
class SampleSink {
 public:
  virtual ~SampleSink() = default;
  virtual void begin(const SampleStreamInfo& info) { (void)info; }
  virtual void consume(const SampleChunk& chunk) = 0;
  virtual void end() {}
};

/// Assembles the full measurement-major matrix in memory — the
/// materializing sink behind the classic BitMatrix-returning calls.
/// Memory grows with shots; prefer WriterSink for huge runs.
class BitMatrixSink final : public SampleSink {
 public:
  void begin(const SampleStreamInfo& info) override;
  void consume(const SampleChunk& chunk) override;

  /// The assembled matrix; valid after end().
  const BitMatrix& matrix() const { return matrix_; }
  BitMatrix take() { return std::move(matrix_); }

 private:
  BitMatrix matrix_;
};

/// Throws unless a shot-major writer can render `chunk` in `format` as
/// part of the run `info` describes. Packed kPtb64 records cover 64
/// shots, so a chunk that ends mid-group must be the run's last one:
/// any earlier one would be zero-padded mid-stream and diverge from the
/// materialized output (its final group is padded exactly like the
/// materialized writer's tail). The engine's word-aligned shard chunks
/// always satisfy this (tests/streaming_session_test.cpp's ragged-shot
/// regressions); WriterSink and the service's frame sink both check it.
void check_writable_chunk(const SampleChunk& chunk, SampleFormat format,
                          const SampleStreamInfo& info);

/// Streams chunks through the SampleFormat renderer into an ostream.
/// The concatenated output is byte-identical to write_samples() on the
/// materialized matrix, but peak memory is one shard, not the run.
///
/// Each chunk is rendered through write_samples into one byte buffer the
/// sink reuses, a fixed number of 64-shot groups per stream write, and
/// then the stream is flushed once, so an incremental consumer (a pipe,
/// a file) sees whole serialized chunks, never a partial record. After
/// that flush the sink checks the stream and throws std::runtime_error
/// if it failed (a full disk, a closed pipe), so the run stops at that
/// chunk instead of finishing silently with truncated output.
class WriterSink final : public SampleSink {
 public:
  WriterSink(std::ostream& out, SampleFormat format)
      : out_(out), format_(format) {}

  void begin(const SampleStreamInfo& info) override { info_ = info; }
  void consume(const SampleChunk& chunk) override;
  void end() override { out_.flush(); }

 private:
  std::ostream& out_;
  SampleFormat format_;
  SampleStreamInfo info_;
  std::string buffer_;
};

/// Hands each chunk to a user callback — the extension point for custom
/// consumers (on-line decoders, histogram accumulators, network
/// shippers) that want bounded memory without subclassing.
class CallbackSink final : public SampleSink {
 public:
  using BeginFn = std::function<void(const SampleStreamInfo&)>;
  using ChunkFn = std::function<void(const SampleChunk&)>;

  explicit CallbackSink(ChunkFn on_chunk, BeginFn on_begin = nullptr)
      : on_chunk_(std::move(on_chunk)), on_begin_(std::move(on_begin)) {}

  void begin(const SampleStreamInfo& info) override {
    if (on_begin_) {
      on_begin_(info);
    }
  }
  void consume(const SampleChunk& chunk) override { on_chunk_(chunk); }

 private:
  ChunkFn on_chunk_;
  BeginFn on_begin_;
};

}  // namespace symphase
