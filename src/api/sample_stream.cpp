#include "api/sample_stream.hpp"

#include <algorithm>
#include <exception>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/simd_word.hpp"
#include "common/trace.hpp"

namespace symphase {

namespace {

/// Rows of `selection` copied out of `full` into `filtered`, word-wise
/// over the shard's valid words.
void select_rows(const BitMatrix& full, std::span<const std::size_t> selection,
                 std::size_t words, BitMatrix& filtered) {
  for (std::size_t i = 0; i < selection.size(); ++i) {
    wide::copy_words(filtered.row(i), full.row(selection[i]), words);
  }
}

/// The calling thread's block sets: `kept` from its last run, `returned`
/// by the run in progress (a session run holds its scratch around the
/// engine's blocks), and how many ShardBlocks are alive on the thread.
struct ThreadBlocks {
  std::vector<std::vector<BitMatrix>> kept;
  std::vector<std::vector<BitMatrix>> returned;
  std::size_t depth = 0;
};

thread_local ThreadBlocks t_blocks;

}  // namespace

std::size_t stream_fill_slots(const StreamSpec& spec) {
  return std::min(
      resolve_thread_count(spec.num_threads),
      std::max<std::size_t>(num_sample_shards(spec.num_shots), 1));
}

ShardBlocks::ShardBlocks(std::size_t count, std::size_t rows)
    : uncaught_(std::uncaught_exceptions()) {
  ThreadBlocks& t = t_blocks;
  const auto hit = std::find_if(
      t.kept.begin(), t.kept.end(), [&](const std::vector<BitMatrix>& set) {
        return set.size() == count && set[0].rows() == rows;
      });
  if (hit != t.kept.end()) {
    blocks_ = std::move(*hit);
    t.kept.erase(hit);
  } else if (count > 0) {
    // Free what this run cannot reuse before allocating.
    t.kept.clear();
    blocks_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      blocks_.emplace_back(rows, kSampleShardBits);
    }
  }
  // Counted last: a constructor that throws runs no destructor.
  ++t.depth;
}

ShardBlocks::~ShardBlocks() {
  ThreadBlocks& t = t_blocks;
  if (std::uncaught_exceptions() > uncaught_) {
    t.kept.clear();
    t.returned.clear();
  } else if (!blocks_.empty()) {
    t.returned.push_back(std::move(blocks_));
  }
  if (--t.depth == 0) {
    t.kept = std::move(t.returned);
    t.returned.clear();
  }
}

void stream_sample_blocks(const StreamSpec& spec, const ShardBlockFn& fill,
                          SampleSink& sink) {
  const std::size_t rows = spec.bits_per_shot;
  const std::span<const std::size_t> selection = spec.bit_selection;
  for (std::size_t i = 0; i < selection.size(); ++i) {
    SYMPHASE_CHECK_MSG(selection[i] < rows,
                       "bit selection index " << selection[i]
                                              << " out of range (record has "
                                              << rows << " bits)");
    SYMPHASE_CHECK_MSG(i == 0 || selection[i - 1] < selection[i],
                       "bit selection must be sorted and duplicate-free");
  }

  const std::size_t source_detectors =
      spec.num_detectors == SIZE_MAX ? rows : spec.num_detectors;
  SYMPHASE_CHECK(source_detectors <= rows);

  SampleStreamInfo info;
  info.num_shots = spec.num_shots;
  if (selection.empty()) {
    info.bits_per_shot = rows;
    info.num_detectors = source_detectors;
  } else {
    info.bits_per_shot = selection.size();
    // Selected rows keep their relative order, so the detector prefix of
    // the filtered record is just the selected indices below the split.
    info.num_detectors = static_cast<std::size_t>(
        std::lower_bound(selection.begin(), selection.end(),
                         source_detectors) -
        selection.begin());
  }

  const std::size_t num_shards = num_sample_shards(spec.num_shots);
  // One in-flight block per worker: bounds memory at `threads` shards
  // while keeping every worker busy within a window; ordered delivery
  // happens at the window boundary.
  const std::size_t window = stream_fill_slots(spec);

  ShardBlocks blocks(num_shards > 0 ? window : 0, rows);
  ShardBlocks filtered(num_shards > 0 && !selection.empty() ? window : 0,
                       selection.size());

  const auto check_cancel = [&] {
    if (spec.cancel != nullptr &&
        spec.cancel->load(std::memory_order_relaxed)) {
      throw TaskCancelled();
    }
  };

  sink.begin(info);
  for (std::size_t base = 0; base < num_shards; base += window) {
    check_cancel();
    const std::size_t count = std::min(window, num_shards - base);
    parallel_for(count, window, [&](std::size_t slot) {
      const std::size_t shard = base + slot;
      trace::Span fill_span("fill", spec.trace_id, spec.trace_ticket, shard);
      fill(slot, shard, blocks[slot]);
      if (!selection.empty()) {
        const ShardExtent e = sample_shard_extent(shard, spec.num_shots);
        select_rows(blocks[slot], selection, e.words, filtered[slot]);
      }
    });
    for (std::size_t slot = 0; slot < count; ++slot) {
      check_cancel();
      const ShardExtent e = sample_shard_extent(base + slot, spec.num_shots);
      SampleChunk chunk;
      chunk.bits = selection.empty() ? &blocks[slot] : &filtered[slot];
      chunk.shot_offset = e.shot0;
      chunk.num_shots = e.shots;
      sink.consume(chunk);
    }
  }
  sink.end();
}

}  // namespace symphase
