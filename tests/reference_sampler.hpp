#pragma once

// The materializing reference the SymPhase shard path is pinned
// against, built from public pieces: B from
// SymbolValueSampler::generate_shard_block, then M·B by
// SparseBitMatrix::multiply_word_range, shard by shard. It makes the
// same draws as the production path (so the same bits) but shares none
// of its scatter, Mᵀ or used-symbol code.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "api/sample_sink.hpp"
#include "api/sample_stream.hpp"
#include "bitvec/bit_matrix.hpp"
#include "bitvec/sparse_bit_matrix.hpp"
#include "common/parallel.hpp"
#include "core/symphase.hpp"
#include "sampler/symbol_value_sampler.hpp"
#include "sampler/symphase_sampler.hpp"

namespace symphase {

/// B for a whole `shots`-shot run, assembled from generate_shard_block.
inline BitMatrix generate_b(const SymbolValueSampler& values,
                            std::size_t shots, std::uint64_t seed) {
  BitMatrix b(values.num_rows(), shots);
  BitMatrix block(values.num_rows(), kSampleShardBits);
  for (std::size_t shard = 0; shard < num_sample_shards(shots); ++shard) {
    const ShardExtent e = sample_shard_extent(shard, shots);
    values.generate_shard_block(shard, shots, seed, block);
    for (std::size_t r = 0; r < b.rows(); ++r) {
      std::copy(block.row(r), block.row(r) + e.words, b.row(r) + e.word0);
    }
  }
  return b;
}

/// The dense reference for one expression set: B rows for the used
/// symbols and M with its columns remapped to those rows.
struct ReferenceSampler {
  ReferenceSampler(const SymbolTable& table,
                   const std::vector<MeasurementExpression>& exprs)
      : values(table, used_symbols(exprs)), m(exprs.size(), values.num_rows()) {
    for (std::size_t k = 0; k < exprs.size(); ++k) {
      std::vector<std::uint32_t> rows;
      for (const std::uint32_t s : exprs[k].symbols) {
        rows.push_back(values.row_of(s));
      }
      m.set_row(k, std::move(rows));
    }
  }

  static std::vector<std::uint32_t> used_symbols(
      const std::vector<MeasurementExpression>& exprs) {
    std::vector<std::uint32_t> used;
    for (const auto& e : exprs) {
      used.insert(used.end(), e.symbols.begin(), e.symbols.end());
    }
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    return used;
  }

  /// The whole `shots`-shot run: generate_shard_block +
  /// multiply_word_range, shard by shard.
  BitMatrix sample(std::size_t shots, std::uint64_t seed) const {
    BitMatrix out(m.rows(), shots);
    BitMatrix b(values.num_rows(), kSampleShardBits);
    BitMatrix block(m.rows(), kSampleShardBits);
    for (std::size_t shard = 0; shard < num_sample_shards(shots); ++shard) {
      const ShardExtent e = sample_shard_extent(shard, shots);
      values.generate_shard_block(shard, shots, seed, b);
      block.clear_all();
      m.multiply_word_range(b, block, 0, e.words);
      for (std::size_t r = 0; r < m.rows(); ++r) {
        std::copy(block.row(r), block.row(r) + e.words, out.row(r) + e.word0);
      }
    }
    return out;
  }

  SymbolValueSampler values;
  SparseBitMatrix m;
};

/// The production shard path of `sampler`, streamed through the session
/// engine (which reuses its scratch blocks across shards) at `threads`
/// workers.
inline BitMatrix stream_shards(const SymPhaseSampler& sampler,
                               std::size_t shots, std::uint64_t seed,
                               std::size_t threads = 1) {
  StreamSpec spec;
  spec.bits_per_shot = sampler.num_measurements();
  spec.num_shots = shots;
  spec.num_threads = threads;
  BitMatrixSink sink;
  stream_sample_blocks(
      spec,
      [&](std::size_t, std::size_t shard, BitMatrix& block) {
        sampler.sample_shard_block(shard, shots, seed, block);
      },
      sink);
  return sink.take();
}

/// `cs`'s detection record (detectors, then observables) as one list.
inline std::vector<MeasurementExpression> joint_detection_expressions(
    const CompiledSampler& cs) {
  std::vector<MeasurementExpression> joint = cs.detector_expressions();
  joint.insert(joint.end(), cs.observable_expressions().begin(),
               cs.observable_expressions().end());
  return joint;
}

/// Reference runs of a CompiledSampler's two records.
inline BitMatrix reference_measurements(const CompiledSampler& cs,
                                        std::size_t shots,
                                        std::uint64_t seed) {
  return ReferenceSampler(cs.symbols(), cs.expressions()).sample(shots, seed);
}

inline BitMatrix reference_detection(const CompiledSampler& cs,
                                     std::size_t shots, std::uint64_t seed) {
  return ReferenceSampler(cs.symbols(), joint_detection_expressions(cs))
      .sample(shots, seed);
}

}  // namespace symphase
