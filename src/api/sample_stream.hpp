#pragma once

/// \file sample_stream.hpp
/// The streaming engine under the task/session API.
///
/// stream_sample_blocks() drives any shard-block producer (the
/// `sample_shard_block` methods of SymPhaseSampler / FrameSimulator, or
/// the session's detection-event fold) through a SampleSink:
///
///   1. the shot axis is cut into the library-wide 128-word shards
///      (common/parallel.hpp) — the same decomposition the materialized
///      samplers use, so shard i draws from Rng::stream(i) either way;
///   2. shards are filled into preallocated blocks in windows of
///      `num_threads` (parallel, dynamic claiming within a window);
///   3. completed blocks are handed to the sink strictly in shot order.
///
/// Peak memory is O(window · rows · kSampleShardWords) — bounded by the
/// thread budget, independent of the total shot count — and the
/// concatenated chunks are bit-identical to the materialized matrix for
/// any thread count and any window schedule.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "api/sample_sink.hpp"
#include "bitvec/bit_matrix.hpp"

namespace symphase {

/// Thrown by stream_sample_blocks() when the run's cancel flag is
/// observed set. The stream is abandoned mid-delivery: the sink's end()
/// is never called, already-delivered chunks stay delivered, and the
/// session's compiled artifacts are untouched — the session remains
/// fully reusable for the next task (the service relies on this to keep
/// a cancelled request's session cached).
struct TaskCancelled : public std::runtime_error {
  TaskCancelled() : std::runtime_error("request cancelled") {}
};

/// Geometry and scheduling of one streamed run.
struct StreamSpec {
  /// Rows each shard block carries (before bit selection).
  std::size_t bits_per_shot = 0;
  /// Rows rendered as detectors (SIZE_MAX = all of them; measurement
  /// runs). Counted against the *unselected* row space; the engine
  /// translates it through any bit selection.
  std::size_t num_detectors = SIZE_MAX;
  std::size_t num_shots = 0;
  /// Worker cap, resolved like every sampler (0 = hardware concurrency).
  std::size_t num_threads = 0;
  /// Optional sorted, duplicate-free row subset to deliver (empty = all).
  std::span<const std::size_t> bit_selection = {};
  /// Optional cooperative cancellation flag, owned by the caller and
  /// outliving the run. Checked at shard-chunk boundaries (before each
  /// fill window and before each ordered chunk delivery), never inside
  /// a shard's kernel — a set flag raises TaskCancelled within one
  /// chunk's worth of work.
  const std::atomic<bool>* cancel = nullptr;
  /// Request identity stamped on the run's per-shard fill spans
  /// (common/trace.hpp); both zero outside the serving stack. Costs one
  /// relaxed load per shard when tracing is off.
  std::uint64_t trace_id = 0;
  std::uint64_t trace_ticket = 0;
};

/// Fills `block` with the contents of the producer's global shard
/// `shard`. Blocks are bits_per_shot x kSampleShardBits and may hold
/// stale data from a previous shard or run; producers overwrite at least
/// the shard's valid words. Called concurrently from worker threads —
/// one distinct block each. `slot` is the index of the preallocated
/// block being filled, always < stream_fill_slots() for the run: a
/// producer that needs scratch per concurrent fill (the session's
/// frame-backend detect fold) keys it by slot and reuses it across the
/// whole run instead of allocating per shard.
using ShardBlockFn =
    std::function<void(std::size_t slot, std::size_t shard, BitMatrix& block)>;

/// Runs the stream: begin(), ordered consume() per shard, end(). A bad
/// bit selection throws before begin(); cancellation (TaskCancelled)
/// and any exception from `fill` or the sink abandon the stream without
/// end(), after the chunks already delivered.
void stream_sample_blocks(const StreamSpec& spec, const ShardBlockFn& fill,
                          SampleSink& sink);

/// Upper bound on the `slot` values a run's fills will observe — the
/// number of preallocated shard blocks: min(resolved threads,
/// max(num_shards, 1)). Size per-slot producer scratch with this.
std::size_t stream_fill_slots(const StreamSpec& spec);

/// `count` blocks of rows x kSampleShardBits that one run borrows from
/// the calling thread: the engine's per-slot blocks and producers'
/// per-slot scratch. When the run returns normally its blocks stay with
/// the thread, and the thread's next run of the same geometry takes them
/// back instead of allocating (glibc keeps freed multi-MB blocks, so
/// allocating per run grew a long-lived process's heap). A thread keeps
/// at most what its last run held: a set that finds no kept set of its
/// geometry frees them all before it allocates, and a run that throws
/// keeps nothing. Blocks come zeroed or holding an earlier run's bits.
class ShardBlocks {
 public:
  ShardBlocks(std::size_t count, std::size_t rows);
  ~ShardBlocks();
  ShardBlocks(const ShardBlocks&) = delete;
  ShardBlocks& operator=(const ShardBlocks&) = delete;

  BitMatrix& operator[](std::size_t slot) { return blocks_[slot]; }

 private:
  std::vector<BitMatrix> blocks_;
  int uncaught_;
};

}  // namespace symphase
