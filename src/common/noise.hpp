#pragma once

/// \file noise.hpp
/// Vectorized noise-generation engine.
///
/// Every noisy workload (X/Y/Z_ERROR, DEPOLARIZE1/2, the symbol-value
/// sampler's error groups) reduces to two primitives: filling packed words
/// with independent Bernoulli(p) bits, and drawing a uniform non-identity
/// Pauli pattern for every set event bit. Both used to be scalar per-event
/// loops; this engine batches them so the cost is a handful of full-width
/// SIMD passes per word block.
///
/// `BiasedBitPlan` picks a strategy per probability once — at circuit
/// compile time for the samplers, which cache one plan per instruction /
/// symbol group — and caches the derived constants (`1/log1p(-q)`, the
/// binary expansion of p), so the per-call FP setup of the old
/// `fill_biased_words` is gone:
///
///   - kRefine (mid-range p): binary-expansion refinement. Interpret a
///     fresh fair-coin word r_j as digit j of a uniform U per bit; the
///     first digit where U differs from p decides the output
///     (u_j < p_j -> 1). Each digit is one AND/OR pass of `wide::` word
///     ops over the block plus one `fill_random_words`, and the
///     still-undecided mask empties after ~log2(block bits)+2 digits, so
///     the cost is O(min(digits of p, ~15)) full-width passes — and the
///     result is *exact* for the double p (a double is a dyadic rational,
///     so its expansion is finite).
///   - kGeometric / kGeometricInverted (sparse p, or 1-p): batched
///     geometric skips. Gaps between set bits are Geometric(q); uniform
///     raw words are drawn in blocks and converted to skips with a
///     branch-free polynomial log (deterministic across platforms, unlike
///     libm's `std::log`; relative error < 1e-11), so the FP work
///     pipelines/vectorizes instead of serializing per event. The
///     inverted flavor fills with ones and *clears* event bits, replacing
///     the old memset+invert double pass.
///   - kZero / kOne / kCoin: exact degenerate fills.
///
/// `fill_pauli_patterns` handles the channel part: for every set event
/// bit it draws a uniform non-identity pattern over `members` bits and
/// XORs pattern bit j into masks[j]. Dense blocks use word-parallel
/// rejection (draw `members` coin words; a bit is accepted if any coin is
/// set, which conditions the joint coin distribution to uniform-over-
/// nonzero), falling back to batched per-event index draws for the sparse
/// tail — no per-bit row pokes on dense noise.
///
/// Event visitors: the geometric-skip fill and the sparse pattern draws
/// are also exposed one event at a time (`BiasedBitPlan::for_each_event`,
/// `PauliPatternDrawer`), so a caller that only needs event positions —
/// the symbol-major SymPhase sampler, which scatters them through the
/// transposed expression matrix — never writes the words. The fills are
/// built on the same inline visitors, so both consume the generator
/// identically by construction.
///
/// Stream compatibility: the algorithms consume the generator differently
/// than the pre-engine scalar code, so sampled streams differ from
/// previous releases for the same seed (document: seeds reproduce within
/// a release, not across the engine change). The shard/`Rng::stream(i)`
/// determinism contract is untouched: a plan's output is a pure function
/// of (rng state, count), so sample matrices stay bit-identical across
/// thread counts and streamed vs. materialized paths.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/bits.hpp"
#include "common/rng.hpp"

namespace symphase {

/// Word-block granularity of the engine: big enough that the per-block
/// setup (undecided mask init, early-exit checks) amortizes, small
/// enough that out + undecided + coin buffers stay L1-resident. Pattern
/// draws restart their buffered batch at every block boundary.
inline constexpr std::size_t kNoiseBlockWords = 128;

namespace noise_detail {

/// Batch size for buffered gap draws.
inline constexpr std::size_t kDrawBatch = 256;

/// Converts raw uniform words to (unfloored) exponential gaps
/// log(u) / log1p(-q) >= 0 with u = ((raw >> 11) + 1) * 2^-53 in
/// (0, 1]; the consumer truncates, which equals floor for non-negative
/// values. The log is an atanh-series polynomial over explicit
/// std::fma, so the loop is branch-free and vectorizes (std::floor here
/// would defeat GCC's vectorizer, which is why flooring is left to the
/// consumer), and — unlike libm's std::log — gives bit-identical gaps
/// on every platform. |relative error| < 1e-11, i.e. the Geometric(q)
/// law is met to ~1e-11.
inline void batch_exponential_gaps(const std::uint64_t* raw, double* gaps,
                                   std::size_t n, double inv_log1m) {
  constexpr double kLn2 = 0.6931471805599453;
  constexpr double kSqrt2 = 1.4142135623730951;
  constexpr std::uint64_t kMantissaMask = (std::uint64_t{1} << 52) - 1;
  constexpr std::uint64_t kOneBits = 0x3FF0000000000000ull;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t y = (raw[i] >> 11) + 1;         // (0, 2^53]
    const double yd = static_cast<double>(y);           // exact
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(yd);
    const auto eu =
        static_cast<double>(static_cast<std::int64_t>(bits >> 52));
    double m =
        std::bit_cast<double>((bits & kMantissaMask) | kOneBits);  // [1, 2)
    const double fold = m > kSqrt2 ? 1.0 : 0.0;  // -> [sqrt2/2, sqrt2)
    m = m > kSqrt2 ? 0.5 * m : m;
    // yd = m * 2^e with e = (eu - 1023) + fold; u = yd * 2^-53.
    const double e = eu - (1023.0 + 53.0) + fold;
    // log(m) = 2 atanh(z) with z = (m-1)/(m+1), |z| <= sqrt2 - 1.
    const double z = (m - 1.0) / (m + 1.0);
    const double w = z * z;
    double s = 1.0 / 13.0;
    s = std::fma(w, s, 1.0 / 11.0);
    s = std::fma(w, s, 1.0 / 9.0);
    s = std::fma(w, s, 1.0 / 7.0);
    s = std::fma(w, s, 1.0 / 5.0);
    s = std::fma(w, s, 1.0 / 3.0);
    s = std::fma(w, s, 1.0);
    const double log_m = (2.0 * z) * s;
    const double log_u = std::fma(e, kLn2, log_m);  // <= 0
    gaps[i] = log_u * inv_log1m;
  }
}

}  // namespace noise_detail

/// How a BiasedBitPlan generates its bits.
enum class BiasStrategy : std::uint8_t {
  kZero,               ///< p <= 0: all zeros.
  kOne,                ///< p >= 1: all ones.
  kCoin,               ///< p == 0.5: raw fair coin words.
  kGeometric,          ///< sparse p: batched geometric skips, set bits.
  kGeometricInverted,  ///< p near 1: ones fill, clear Geometric(1-p) bits.
  kRefine,             ///< mid-range p: binary-expansion refinement.
};

/// Compiled generation strategy for one Bernoulli(p) bit stream.
/// Cheap to copy; samplers cache one per noise instruction / symbol
/// group so the strategy choice and FP setup happen once per circuit.
class BiasedBitPlan {
 public:
  /// Probabilities below this (or above 1 - this) use geometric skips;
  /// the band in between uses refinement. At the crossover the expected
  /// per-word event work of the skip loop (~p*64 events) matches the
  /// ~15 SIMD digit passes of refinement. See docs/performance.md.
  static constexpr double kSparseCrossover = 1.0 / 32.0;

  BiasedBitPlan() = default;  ///< p = 0 (all zeros).
  explicit BiasedBitPlan(double p);

  BiasStrategy strategy() const { return strategy_; }
  double probability() const { return p_; }

  /// Fills out[0..count) with words whose bits are independent
  /// Bernoulli(p) draws. Deterministic in the generator state.
  void fill(Rng& rng, Word* out, std::size_t count) const;

  /// Geometric strategies only: calls visit(bit) for every event of a
  /// `count`-word fill, in ascending bit order — the bits fill() sets
  /// (kGeometric) or clears (kGeometricInverted) — drawing from `rng`
  /// exactly as fill() does.
  template <typename Visit>
  void for_each_event(Rng& rng, std::size_t count, Visit&& visit) const;

 private:
  void fill_geometric(Rng& rng, Word* out, std::size_t count) const;
  void fill_refine(Rng& rng, Word* out, std::size_t count) const;

  double p_ = 0.0;
  /// Geometric: the sparse event rate q (= p or 1-p) and cached
  /// 1 / log1p(-q), so no per-call log or per-event divide.
  double event_rate_ = 0.0;
  double inv_log1m_ = 0.0;
  /// Refine: binary expansion of p, MSB-aligned (bit 63 = the 1/2 digit).
  /// Exact for the refinement band (p >= 2^-5 has all 53 significand
  /// bits within the top 58 digits).
  std::uint64_t digits_ = 0;
  int num_digits_ = 0;
  BiasStrategy strategy_ = BiasStrategy::kZero;
};

template <typename Visit>
void BiasedBitPlan::for_each_event(Rng& rng, std::size_t count,
                                   Visit&& visit) const {
  using noise_detail::kDrawBatch;
  const std::size_t total_bits = count * kWordBits;
  std::uint64_t raw[kDrawBatch];
  double gaps[kDrawBatch];
  // First batch sized to the expected event count (+ slack), so
  // ultra-sparse fills don't pay a full batch of conversions; later
  // batches ramp up to amortize the draw/convert call overhead.
  std::size_t batch = static_cast<std::size_t>(
                          event_rate_ * static_cast<double>(total_bits)) +
                      2;
  if (batch > kDrawBatch) {
    batch = kDrawBatch;
  }
  std::size_t bit = 0;
  for (;;) {
    fill_random_words(rng, raw, batch);
    noise_detail::batch_exponential_gaps(raw, gaps, batch, inv_log1m_);
    for (std::size_t i = 0; i < batch; ++i) {
      // Truncation == floor: gaps are non-negative, and for the integer
      // bound floor(g) >= remaining iff g >= remaining.
      if (gaps[i] >= static_cast<double>(total_bits - bit)) {
        return;
      }
      bit += static_cast<std::size_t>(gaps[i]);
      visit(bit);
      ++bit;
      if (bit >= total_bits) {
        return;
      }
    }
    batch = batch * 4 < kDrawBatch ? batch * 4 : kDrawBatch;
  }
}

/// Whether fill_pauli_patterns draws a channel's patterns one event at
/// a time (fewer than one expected event per word) rather than by
/// word-parallel rejection rounds. The choice is made from the channel's
/// p, never by scanning the events.
inline bool sparse_pauli_patterns(double event_probability) {
  return event_probability * static_cast<double>(kWordBits) < 1.0;
}

/// The per-event draw of fill_pauli_patterns' sparse path: uniform
/// non-identity patterns over `members` bits (bit j = member j), taken
/// from small buffered batches of raw words (Lemire multiply-shift; the
/// rejection branch fires with probability < 2^-60 and falls back to
/// serial redraws). fill_pauli_patterns starts a fresh drawer for every
/// kNoiseBlockWords-word block and calls next() once per event in
/// ascending bit order; a caller visiting the same events in the same
/// order draws the same patterns.
class PauliPatternDrawer {
 public:
  explicit PauliPatternDrawer(unsigned members)
      : count_((std::uint64_t{1} << members) - 1),
        threshold_((0 - count_) % count_) {}

  std::uint64_t next(Rng& rng) {
    if (pos_ == kBatch) {
      fill_random_words(rng, raw_, kBatch);
      pos_ = 0;
    }
    std::uint64_t x = raw_[pos_++];
    __uint128_t prod = static_cast<__uint128_t>(x) * count_;
    auto low = static_cast<std::uint64_t>(prod);
    while (low < threshold_) {
      x = rng();
      prod = static_cast<__uint128_t>(x) * count_;
      low = static_cast<std::uint64_t>(prod);
    }
    return static_cast<std::uint64_t>(prod >> 64) + 1;
  }

 private:
  static constexpr std::size_t kBatch = 16;
  std::uint64_t count_;
  std::uint64_t threshold_;
  std::uint64_t raw_[kBatch];
  std::size_t pos_ = kBatch;
};

/// For every set bit of events[0..words), draws a uniformly random
/// NON-identity pattern over `members` bits (members in [1, 6]) and XORs
/// pattern bit j into masks[j] at the event's bit position. Entries of
/// `masks` may be nullptr (pattern bits for unused members are drawn —
/// the joint distribution requires it — but not deposited). Bits of
/// masks[j] outside the event positions are never touched, so callers
/// may pass live frame/sample rows and get the whole-word XOR
/// application for free.
///
/// `event_probability` (the channel's p, known from the caller's plan)
/// picks the path without scanning: dense blocks (expected >= 1
/// event/word) use word-parallel rejection rounds; sparse blocks draw
/// buffered pattern indices and poke only the set bits. Both are
/// deterministic in the generator state.
void fill_pauli_patterns(Rng& rng, const Word* events, std::size_t words,
                         unsigned members, Word* const* masks,
                         double event_probability);

}  // namespace symphase
