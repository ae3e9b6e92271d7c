#pragma once

/// \file rng_lanes.hpp
/// The 8-lane lockstep xoshiro engine behind every bulk coin fill.
///
/// xoshiro's output has a serial dependency chain, so bulk generation
/// runs eight forked lanes in lockstep across one WideWord: every step
/// is elementwise shift/add/xor/rotate and compiles to two AVX2 or one
/// AVX-512 vector op (the multiplies by 5 and 9 are shift+add because
/// AVX2 has no 64-bit vector multiply; a rotate is one vprolq on AVX-512
/// and a shift pair elsewhere). The lane count is fixed at 8 on every
/// backend, so the stream is bit-identical on scalar, AVX2, and AVX-512
/// builds — rng_test's golden pins depend on that.
///
/// Seeding draws the eight parent words serially, in lane order, then
/// runs the eight lanes' splitmix64 chains (one mix, then four state
/// words each) as one WideWord chain of 5 vector mixes through the
/// lanewise multiply. The lane states must stay those of
/// fill_random_words' per-lane scalar chain, so that every coin word
/// does. Every 128-word coin row pays for a seeding.
///
/// fill_random_words (rng.cpp) drains the engine into a buffer; the
/// noise engine's kRefine digit passes (noise.cpp) consume next() words
/// in registers and fuse them straight into the AND/OR combine instead
/// of round-tripping through scratch. Both orderings draw the same
/// words, so they are interchangeable without moving any stream.

#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"
#include "common/simd_word.hpp"

namespace symphase {

class XoshiroLanes {
 public:
  static constexpr std::size_t kLanes = WideWord::kWords;
  static_assert(kLanes == 8);

  /// Seeds lane l from fork(l)'s mix followed by Rng(splitmix64(mix))'s
  /// reseed chain, inlined to reach the raw state words (the reseed
  /// zero-guard cannot trigger on splitmix64 output). Consumes exactly
  /// kLanes draws from `rng`; the parent stays deterministic.
  explicit XoshiroLanes(Rng& rng) {
    alignas(64) std::uint64_t mix[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      mix[l] = rng() ^ (kGamma * (l + 1));
    }
    // splitmix64 per lane: seed = splitmix64(mix), then four draws of
    // splitmix64(seed), each a state step and a finalizer.
    const WideWord gamma = WideWord::splat(kGamma);
    WideWord seed = finalize(WideWord::load(mix) + gamma);
    seed = seed + gamma;
    s0_ = finalize(seed);
    seed = seed + gamma;
    s1_ = finalize(seed);
    seed = seed + gamma;
    s2_ = finalize(seed);
    seed = seed + gamma;
    s3_ = finalize(seed);
  }

  /// Drains the next `n` coin words into `out` (lane-major blocks, with
  /// a bounce-buffer tail when n is not a lane multiple) — the bulk-fill
  /// loop shared by fill_random_words and the refine digit passes.
  void fill(Word* out, std::size_t n) {
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      next().store(out + i);
    }
    if (i < n) {
      alignas(64) Word tail[kLanes];
      next().store(tail);
      for (std::size_t l = 0; i < n; ++i, ++l) {
        out[i] = tail[l];
      }
    }
  }

  /// The next kLanes coin words, one per lane, as a single WideWord.
  WideWord next() {
    const WideWord x = s1_.shl(2) + s1_;  // s1 * 5
    const WideWord r = x.rotl<7>();
    const WideWord out = r.shl(3) + r;  // rotl(s1 * 5, 7) * 9
    const WideWord t = s1_.shl(17);
    s2_ ^= s0_;
    s3_ ^= s1_;
    s1_ ^= s2_;
    s0_ ^= s3_;
    s2_ ^= t;
    s3_ = s3_.rotl<45>();
    return out;
  }

 private:
  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ull;

  /// splitmix64's output function (rng.hpp), lanewise.
  static WideWord finalize(WideWord z) {
    z = (z ^ z.shr(30)) * WideWord::splat(0xBF58476D1CE4E5B9ull);
    z = (z ^ z.shr(27)) * WideWord::splat(0x94D049BB133111EBull);
    return z ^ z.shr(31);
  }

  WideWord s0_;
  WideWord s1_;
  WideWord s2_;
  WideWord s3_;
};

}  // namespace symphase
