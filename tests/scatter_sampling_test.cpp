// The symbol-major shard path (SymPhaseSampler::sample_shard_block,
// which scatters noise events through Mᵀ) against the dense reference
// built from public pieces: SymbolValueSampler::generate_shard_block
// followed by SparseBitMatrix::multiply_word_range. A synthetic symbol
// table covers every group kind and every probability band the scatter
// splits on — including bands no corpus circuit reaches: p in
// [1/64, 1/32) (geometric fills on the scratch path, with word-parallel
// pattern rounds for depolarizing groups) and p > 31/32 (inverted
// fills) — groups on either side of the path rule's Mᵀ-weight cut,
// unused group members and empty expressions, over ragged and
// multi-shard shot counts at 1 and 4 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "circuit/surface_code.hpp"
#include "common/parallel.hpp"
#include "core/symphase.hpp"
#include "reference_sampler.hpp"
#include "sampler/symphase_sampler.hpp"

namespace symphase {
namespace {

constexpr std::size_t kShotCounts[] = {1, 63, 8191, 8192 + 9,
                                       2 * 8192 + 777};

void expect_scatter_matches_reference(
    const SymbolTable& table, const std::vector<MeasurementExpression>& exprs,
    const char* what) {
  const SymPhaseSampler sampler(table, exprs);
  const ReferenceSampler reference(table, exprs);
  for (const std::size_t shots : kShotCounts) {
    for (const std::uint64_t seed : {3u, 77u}) {
      const BitMatrix expected = reference.sample(shots, seed);
      for (const std::size_t threads : {1u, 4u}) {
        EXPECT_EQ(stream_shards(sampler, shots, seed, threads), expected)
            << what << ": shots=" << shots << " seed=" << seed
            << " threads=" << threads;
      }
    }
  }
}

/// A table with one group per kind and band the scatter distinguishes,
/// and measurement-like expressions over it.
struct Synthetic {
  SymbolTable table;
  std::vector<MeasurementExpression> measurements;
  std::vector<MeasurementExpression> detections;
};

Synthetic make_synthetic() {
  Synthetic s;
  // Symbols the expressions may read; members left out stay unused.
  std::vector<std::uint32_t> pool = {0};
  pool.push_back(s.table.add_coin());
  pool.push_back(s.table.add_coin());
  for (const double p : {0.0, 1e-4, 1e-3, 0.02, 0.1, 0.5, 0.99, 1.0}) {
    pool.push_back(s.table.add_fault(p, 1));
  }
  std::vector<std::uint32_t> pairs;  // both members of one group
  for (const double p : {1e-3, 0.015, 0.02, 0.1}) {
    const std::uint32_t d1 = s.table.add_fault(p, 2);
    pool.insert(pool.end(), {d1, d1 + 1});
    pairs.push_back(d1);
    pool.push_back(s.table.add_fault(p, 2) + 1);  // X member unused
    const std::uint32_t d2 = s.table.add_fault(p, 4);
    pool.insert(pool.end(), {d2, d2 + 1, d2 + 2, d2 + 3});
    pairs.push_back(d2 + 2);
    const std::uint32_t half = s.table.add_fault(p, 4);
    pool.insert(pool.end(), {half, half + 3});  // members 1, 2 unused
  }

  // The path rule weighs p against the group's Mᵀ weight W. At these p
  // a group read by one or two rows takes the event path and one read
  // by a dozen rows the scratch path, in both expression sets.
  const std::uint32_t light_bernoulli = s.table.add_fault(0.0035, 1);
  const std::uint32_t heavy_bernoulli = s.table.add_fault(0.0035, 1);
  const std::uint32_t light_depolarize = s.table.add_fault(0.015, 2);
  const std::uint32_t heavy_depolarize = s.table.add_fault(0.015, 2);
  // An event group whose members sit on both sides of the scatter's
  // light cut (at most four readers flip masked by the pattern bit, more
  // branch on it): member 0 is read by eight rows, members 1-3 by one or
  // two each, and member 3 shares a row with member 1. At p = 1e-3 a
  // four-member group takes the event path at any weight.
  const std::uint32_t mixed = s.table.add_fault(1e-3, 4);

  Rng rng(2024);
  s.measurements.push_back({{}, false});
  s.measurements.push_back({{0}, false});
  s.measurements.push_back({{light_bernoulli, light_depolarize}, false});
  for (std::size_t k = 0; k < 24; ++k) {
    // Heavy groups in every other row, so that the detection XORs of
    // consecutive rows keep them too.
    std::vector<std::uint32_t> symbols = {pool[k % pool.size()]};
    if (k % 2 == 0) {
      symbols.insert(symbols.end(), {heavy_bernoulli, heavy_depolarize,
                                     heavy_depolarize + 1});
    }
    if (k % 3 == 0) {
      symbols.push_back(mixed);
    }
    if (k == 1) {
      symbols.insert(symbols.end(), {mixed + 1, mixed + 3});
    }
    if (k == 4 || k == 5) {
      symbols.push_back(mixed + 2);
    }
    if (k == 10) {
      symbols.push_back(mixed + 3);
    }
    std::sort(symbols.begin(), symbols.end());
    symbols.erase(std::unique(symbols.begin(), symbols.end()), symbols.end());
    s.measurements.push_back({std::move(symbols), false});
  }
  for (const std::uint32_t first : pairs) {
    // Both members in one row: a Y-like pattern cancels in it.
    s.measurements.push_back({{first, first + 1}, false});
  }
  for (std::size_t k = 0; k < pool.size() + 10; ++k) {
    std::vector<std::uint32_t> symbols = {pool[k % pool.size()]};
    const std::size_t extra = rng.next_below(4);
    for (std::size_t i = 0; i < extra; ++i) {
      symbols.push_back(pool[rng.next_below(pool.size())]);
    }
    std::sort(symbols.begin(), symbols.end());
    symbols.erase(std::unique(symbols.begin(), symbols.end()), symbols.end());
    s.measurements.push_back({std::move(symbols), false});
  }
  s.measurements.push_back({{}, false});

  // Detector-like XORs of consecutive measurements (some cancel to
  // empty), then one observable-like XOR over a stride.
  for (std::size_t k = 0; k + 1 < s.measurements.size(); ++k) {
    s.detections.push_back(
        {xor_symbol_lists(s.measurements[k].symbols,
                          s.measurements[k + 1].symbols),
         false});
  }
  s.detections.push_back({{}, false});
  std::vector<std::uint32_t> observable;
  for (std::size_t k = 0; k < s.measurements.size(); k += 5) {
    observable = xor_symbol_lists(observable, s.measurements[k].symbols);
  }
  s.detections.push_back({std::move(observable), false});
  return s;
}

TEST(ScatterSampling, SyntheticMeasurementsMatchDenseReference) {
  const Synthetic s = make_synthetic();
  expect_scatter_matches_reference(s.table, s.measurements, "measurements");
}

TEST(ScatterSampling, SyntheticDetectionsMatchDenseReference) {
  const Synthetic s = make_synthetic();
  expect_scatter_matches_reference(s.table, s.detections, "detections");
}

TEST(ScatterSampling, RecordSplitIntoHeadAndTailMatchesOneList) {
  // A detection record is sampled from two lists (detectors, then
  // observables) without joining them; the split must not move a bit.
  const Synthetic s = make_synthetic();
  const std::span<const MeasurementExpression> all(s.detections);
  for (const std::size_t head : {std::size_t{0}, std::size_t{1},
                                 all.size() / 2, all.size()}) {
    const SymPhaseSampler split(s.table, all.first(head),
                                all.subspan(head));
    const std::size_t shots = 8192 + 9;
    EXPECT_EQ(stream_shards(split, shots, 5, 2),
              ReferenceSampler(s.table, s.detections).sample(shots, 5))
        << "head=" << head;
  }
}

TEST(ScatterSampling, NoisySurfaceCodeMatchesDenseReference) {
  // p-data 0.02 puts every data DEPOLARIZE1 in [1/64, 1/32).
  SurfaceCodeOptions options;
  options.distance = 3;
  options.rounds = 3;
  options.data_depolarization = 0.02;
  options.measurement_flip_probability = 0.001;
  const CompiledSampler cs = CompiledSampler::compile(
      surface_code_memory(options));
  expect_scatter_matches_reference(cs.symbols(), cs.expressions(),
                                   "measurements");
  expect_scatter_matches_reference(cs.symbols(),
                                   joint_detection_expressions(cs),
                                   "detections");
}

TEST(ScatterSampling, NoUsedSymbolsGivesZeroRows) {
  SymbolTable table;
  table.add_fault(0.01, 1);
  const std::vector<MeasurementExpression> exprs = {{{}, false},
                                                    {{}, false}};
  const SymPhaseSampler sampler(table, exprs);
  BitMatrix block(2, kSampleShardBits);
  block.row(1)[5] = 0xff;  // stale scratch contents are overwritten
  sampler.sample_shard_block(0, 100, 1, block);
  EXPECT_EQ(block.count_ones(), 0u);
}

}  // namespace
}  // namespace symphase
