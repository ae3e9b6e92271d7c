#pragma once

/// \file row_kernels.hpp
/// Word-parallel kernels shared by the tableau layouts' row operations.
///
/// Row multiplication (A-G "rowsum") needs the power of i picked up by
/// the Pauli product. Each qubit contributes i^g with g in {0,+1,-1};
/// PhaseTally counts +1s and -1s via bit masks on raw words, so every
/// layout calls it on its own storage and pauli_mul_i_exponent on a
/// PauliString's. All kernels run at WideWord (512-bit lane) width with
/// scalar tails.

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/bits.hpp"
#include "common/simd_word.hpp"

namespace symphase {

/// Running (#+1, #-1) tally of per-qubit i exponents.
struct PhaseTally {
  long long plus = 0;
  long long minus = 0;

  /// Accumulates one word of (x1, z1) × (x2, z2) Pauli pairings, where
  /// (x1, z1) is the row being multiplied into (dst) and (x2, z2) the
  /// source row.
  inline void accumulate(Word x1, Word z1, Word x2, Word z2) {
    // dst qubit × src qubit products contributing +i: (Y,Z),(X,Y),(Z,X);
    // contributing -i: (Y,X),(X,Z),(Z,Y). Note operand order: result is
    // dst·src, so "1" = dst bits, "2" = src bits.
    const Word plus_mask =
        (x1 & z1 & ~x2 & z2) | (x1 & ~z1 & x2 & z2) | (~x1 & z1 & x2 & ~z2);
    const Word minus_mask =
        (x1 & z1 & x2 & ~z2) | (x1 & ~z1 & ~x2 & z2) | (~x1 & z1 & x2 & z2);
    plus += popcount(plus_mask);
    minus += popcount(minus_mask);
  }

  /// Full-lane variant of accumulate: same masks over a 512-bit lane.
  inline void accumulate(WideWord x1, WideWord z1, WideWord x2, WideWord z2) {
    const WideWord plus_mask = (x1 & z1 & andnot(x2, z2)) |
                               (andnot(z1, x1) & x2 & z2) |
                               (andnot(x1, z1) & andnot(z2, x2));
    const WideWord minus_mask = (x1 & z1 & andnot(z2, x2)) |
                                (andnot(z1, x1) & andnot(x2, z2)) |
                                (andnot(x1, z1) & x2 & z2);
    plus += static_cast<long long>(plus_mask.popcount());
    minus += static_cast<long long>(minus_mask.popcount());
  }

  /// Total i exponent mod 4. Must be even for products of commuting
  /// (real-phased) rows; the caller asserts that.
  int i_exponent_mod4() const {
    return static_cast<int>((((plus - minus) % 4) + 4) % 4);
  }
};

/// Fused A-G rowsum inner loop over paired X/Z word spans: tallies the
/// i-exponent masks of row(dst) · row(src) while XORing the src bands
/// into the dst bands. Shared by the dense row-major image and the
/// blocked layout so the rowsum semantics live in exactly one place.
inline void rowsum_xor_accumulate(Word* dst_x, Word* dst_z, const Word* src_x,
                                  const Word* src_z, std::size_t count,
                                  PhaseTally& tally) {
  std::size_t i = 0;
  for (; i + WideWord::kWords <= count; i += WideWord::kWords) {
    const WideWord dx = WideWord::load(dst_x + i);
    const WideWord dz = WideWord::load(dst_z + i);
    const WideWord sx = WideWord::load(src_x + i);
    const WideWord sz = WideWord::load(src_z + i);
    tally.accumulate(dx, dz, sx, sz);
    (dx ^ sx).store(dst_x + i);
    (dz ^ sz).store(dst_z + i);
  }
  for (; i < count; ++i) {
    tally.accumulate(dst_x[i], dst_z[i], src_x[i], src_z[i]);
    dst_x[i] ^= src_x[i];
    dst_z[i] ^= src_z[i];
  }
}

/// Packs bit `shift` of `count` words spaced `stride` words apart (one
/// per row of a row-oriented image) into a row mask: bit k of `out` is
/// bit `shift` of first[k * stride]. Writes words_for_bits(count) words.
inline void gather_bit_column(const Word* first, std::size_t stride,
                              std::size_t shift, std::size_t count,
                              Word* out) {
  for (std::size_t w = 0; w * kWordBits < count; ++w) {
    const Word* p = first + w * kWordBits * stride;
    const std::size_t rows = std::min(kWordBits, count - w * kWordBits);
    Word mask = 0;
    for (std::size_t k = 0; k < rows; ++k) {
      mask |= ((p[k * stride] >> shift) & 1) << k;
    }
    out[w] = mask;
  }
}

}  // namespace symphase
