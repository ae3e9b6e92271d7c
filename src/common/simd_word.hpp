#pragma once

/// \file simd_word.hpp
/// Width-abstracted SIMD word: the kernel layer under every bit container.
///
/// All hot loops in the library reduce to streaming boolean algebra over
/// packed 64-bit words. WideWord models one 512-bit (64-byte, cache-line)
/// lane of that algebra and compiles to the widest vector unit the target
/// offers — AVX-512, AVX2 (two 256-bit halves), or a plain 8×u64 scalar
/// block that the autovectorizer handles on everything else. The dispatch
/// is compile-time, same pattern as the tile transpose in
/// bitvec/transpose.cpp.
///
/// On top of the single-lane type, the `wide::` span helpers run whole
/// word runs (any count, any alignment): a full-lane main loop plus a
/// scalar tail. Containers keep their storage 64-byte aligned
/// (common/aligned.hpp), so in practice the main loop's unaligned
/// loads/stores hit aligned addresses and cost nothing extra.

#include <cstddef>
#include <cstdint>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/bits.hpp"

namespace symphase {

#if defined(__AVX512F__)

#define SYMPHASE_WIDEWORD_BACKEND "avx512"

/// 512-bit SIMD word, AVX-512 backend. `andnot`, the shifts and the
/// popcount sum are written with GCC vector extensions: their intrinsics
/// pass `_mm512_undefined_epi32()` as a merge source, which GCC 12 reports
/// as -Wmaybe-uninitialized at every inlined call. The multiply is one
/// too, so it builds without AVX-512DQ (GCC then emulates vpmullq).
struct WideWord {
  using Lanes = std::uint64_t __attribute__((vector_size(64)));

  __m512i v;

  static constexpr std::size_t kWords = 8;
  static constexpr std::size_t kBits = kWords * kWordBits;

  static WideWord zero() { return {_mm512_setzero_si512()}; }
  static WideWord splat(Word w) {
    return {_mm512_set1_epi64(static_cast<long long>(w))};
  }
  static WideWord load(const Word* p) {
    return {_mm512_loadu_si512(reinterpret_cast<const void*>(p))};
  }
  void store(Word* p) const {
    _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
  }

  friend WideWord operator^(WideWord a, WideWord b) {
    return {_mm512_xor_si512(a.v, b.v)};
  }
  friend WideWord operator&(WideWord a, WideWord b) {
    return {_mm512_and_si512(a.v, b.v)};
  }
  friend WideWord operator|(WideWord a, WideWord b) {
    return {_mm512_or_si512(a.v, b.v)};
  }
  WideWord operator~() const {
    return {_mm512_xor_si512(v, _mm512_set1_epi64(-1))};
  }
  WideWord& operator^=(WideWord o) {
    v = _mm512_xor_si512(v, o.v);
    return *this;
  }
  WideWord& operator&=(WideWord o) {
    v = _mm512_and_si512(v, o.v);
    return *this;
  }
  WideWord& operator|=(WideWord o) {
    v = _mm512_or_si512(v, o.v);
    return *this;
  }

  /// ~a & b in one instruction.
  friend WideWord andnot(WideWord a, WideWord b) { return {~a.v & b.v}; }

  /// Lanewise 64-bit add / shifts (the vectorized-PRNG building blocks);
  /// shift counts are in [0, 63].
  friend WideWord operator+(WideWord a, WideWord b) {
    return {_mm512_add_epi64(a.v, b.v)};
  }
  /// Lanewise 64-bit multiply, low half: one vpmullq.
  friend WideWord operator*(WideWord a, WideWord b) {
    return {(__m512i)((Lanes)a.v * (Lanes)b.v)};
  }
  WideWord shl(int k) const { return {(__m512i)((Lanes)v << k)}; }
  WideWord shr(int k) const { return {(__m512i)((Lanes)v >> k)}; }
  /// Lanewise rotate left by K in [1, 63]: one vprolq. The masked form
  /// with every lane selected merges from `v` itself, where the plain
  /// intrinsic would merge from `_mm512_undefined_epi32()`.
  template <int K>
  WideWord rotl() const {
    return {_mm512_mask_rol_epi64(v, __mmask8(0xFF), v, K)};
  }

  bool nonzero() const { return _mm512_test_epi64_mask(v, v) != 0; }

  std::uint64_t popcount() const {
#if defined(__AVX512VPOPCNTDQ__)
    const auto c = (Lanes)_mm512_popcnt_epi64(v);
    const auto c4 = __builtin_shufflevector(c, c, 0, 1, 2, 3) +
                    __builtin_shufflevector(c, c, 4, 5, 6, 7);
    const auto c2 = __builtin_shufflevector(c4, c4, 0, 1) +
                    __builtin_shufflevector(c4, c4, 2, 3);
    return c2[0] + c2[1];
#else
    alignas(64) Word w[kWords];
    _mm512_store_si512(reinterpret_cast<void*>(w), v);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kWords; ++i) {
      total += static_cast<std::uint64_t>(std::popcount(w[i]));
    }
    return total;
#endif
  }

  /// XOR of the eight 64-bit lanes (parity folding for dot products).
  Word xor_fold() const {
    alignas(64) Word w[kWords];
    _mm512_store_si512(reinterpret_cast<void*>(w), v);
    return w[0] ^ w[1] ^ w[2] ^ w[3] ^ w[4] ^ w[5] ^ w[6] ^ w[7];
  }
};

#elif defined(__AVX2__)

#define SYMPHASE_WIDEWORD_BACKEND "avx2"

/// 512-bit SIMD word, AVX2 backend (two 256-bit halves).
struct WideWord {
  using HalfLanes = std::uint64_t __attribute__((vector_size(32)));

  __m256i v[2];

  static constexpr std::size_t kWords = 8;
  static constexpr std::size_t kBits = kWords * kWordBits;

  static WideWord zero() {
    return {{_mm256_setzero_si256(), _mm256_setzero_si256()}};
  }
  static WideWord splat(Word w) {
    const __m256i s = _mm256_set1_epi64x(static_cast<long long>(w));
    return {{s, s}};
  }
  static WideWord load(const Word* p) {
    return {{_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)),
             _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4))}};
  }
  void store(Word* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v[0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 4), v[1]);
  }

  friend WideWord operator^(WideWord a, WideWord b) {
    return {{_mm256_xor_si256(a.v[0], b.v[0]),
             _mm256_xor_si256(a.v[1], b.v[1])}};
  }
  friend WideWord operator&(WideWord a, WideWord b) {
    return {{_mm256_and_si256(a.v[0], b.v[0]),
             _mm256_and_si256(a.v[1], b.v[1])}};
  }
  friend WideWord operator|(WideWord a, WideWord b) {
    return {{_mm256_or_si256(a.v[0], b.v[0]),
             _mm256_or_si256(a.v[1], b.v[1])}};
  }
  WideWord operator~() const {
    const __m256i ones = _mm256_set1_epi64x(-1);
    return {{_mm256_xor_si256(v[0], ones), _mm256_xor_si256(v[1], ones)}};
  }
  WideWord& operator^=(WideWord o) { return *this = *this ^ o; }
  WideWord& operator&=(WideWord o) { return *this = *this & o; }
  WideWord& operator|=(WideWord o) { return *this = *this | o; }

  friend WideWord andnot(WideWord a, WideWord b) {
    return {{_mm256_andnot_si256(a.v[0], b.v[0]),
             _mm256_andnot_si256(a.v[1], b.v[1])}};
  }

  friend WideWord operator+(WideWord a, WideWord b) {
    return {{_mm256_add_epi64(a.v[0], b.v[0]),
             _mm256_add_epi64(a.v[1], b.v[1])}};
  }
  /// Lanewise 64-bit multiply, low half. AVX2 has no 64-bit multiply;
  /// GCC emulates one per half from 32-bit vpmuludq products.
  friend WideWord operator*(WideWord a, WideWord b) {
    return {{(__m256i)((HalfLanes)a.v[0] * (HalfLanes)b.v[0]),
             (__m256i)((HalfLanes)a.v[1] * (HalfLanes)b.v[1])}};
  }
  WideWord shl(int k) const {
    return {{_mm256_slli_epi64(v[0], k), _mm256_slli_epi64(v[1], k)}};
  }
  WideWord shr(int k) const {
    return {{_mm256_srli_epi64(v[0], k), _mm256_srli_epi64(v[1], k)}};
  }
  /// Lanewise rotate left by K in [1, 63] (AVX2 has no rotate).
  template <int K>
  WideWord rotl() const {
    return shl(K) | shr(64 - K);
  }

  bool nonzero() const {
    const __m256i both = _mm256_or_si256(v[0], v[1]);
    return _mm256_testz_si256(both, both) == 0;
  }

  std::uint64_t popcount() const {
    alignas(32) Word w[kWords];
    _mm256_store_si256(reinterpret_cast<__m256i*>(w), v[0]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(w + 4), v[1]);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kWords; ++i) {
      total += static_cast<std::uint64_t>(std::popcount(w[i]));
    }
    return total;
  }

  Word xor_fold() const {
    alignas(32) Word w[kWords];
    _mm256_store_si256(reinterpret_cast<__m256i*>(w), v[0]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(w + 4), v[1]);
    return w[0] ^ w[1] ^ w[2] ^ w[3] ^ w[4] ^ w[5] ^ w[6] ^ w[7];
  }
};

#else

#define SYMPHASE_WIDEWORD_BACKEND "scalar"

/// 512-bit SIMD word, portable 8×u64 backend.
struct WideWord {
  Word v[8];

  static constexpr std::size_t kWords = 8;
  static constexpr std::size_t kBits = kWords * kWordBits;

  static WideWord zero() { return {}; }
  static WideWord splat(Word w) { return {{w, w, w, w, w, w, w, w}}; }
  static WideWord load(const Word* p) {
    WideWord r;
    for (std::size_t i = 0; i < kWords; ++i) {
      r.v[i] = p[i];
    }
    return r;
  }
  void store(Word* p) const {
    for (std::size_t i = 0; i < kWords; ++i) {
      p[i] = v[i];
    }
  }

  friend WideWord operator^(WideWord a, WideWord b) {
    WideWord r;
    for (std::size_t i = 0; i < kWords; ++i) {
      r.v[i] = a.v[i] ^ b.v[i];
    }
    return r;
  }
  friend WideWord operator&(WideWord a, WideWord b) {
    WideWord r;
    for (std::size_t i = 0; i < kWords; ++i) {
      r.v[i] = a.v[i] & b.v[i];
    }
    return r;
  }
  friend WideWord operator|(WideWord a, WideWord b) {
    WideWord r;
    for (std::size_t i = 0; i < kWords; ++i) {
      r.v[i] = a.v[i] | b.v[i];
    }
    return r;
  }
  WideWord operator~() const {
    WideWord r;
    for (std::size_t i = 0; i < kWords; ++i) {
      r.v[i] = ~v[i];
    }
    return r;
  }
  WideWord& operator^=(WideWord o) { return *this = *this ^ o; }
  WideWord& operator&=(WideWord o) { return *this = *this & o; }
  WideWord& operator|=(WideWord o) { return *this = *this | o; }

  friend WideWord andnot(WideWord a, WideWord b) { return ~a & b; }

  friend WideWord operator+(WideWord a, WideWord b) {
    WideWord r;
    for (std::size_t i = 0; i < kWords; ++i) {
      r.v[i] = a.v[i] + b.v[i];
    }
    return r;
  }
  /// Lanewise 64-bit multiply, low half.
  friend WideWord operator*(WideWord a, WideWord b) {
    WideWord r;
    for (std::size_t i = 0; i < kWords; ++i) {
      r.v[i] = a.v[i] * b.v[i];
    }
    return r;
  }
  WideWord shl(int k) const {
    WideWord r;
    for (std::size_t i = 0; i < kWords; ++i) {
      r.v[i] = v[i] << k;
    }
    return r;
  }
  WideWord shr(int k) const {
    WideWord r;
    for (std::size_t i = 0; i < kWords; ++i) {
      r.v[i] = v[i] >> k;
    }
    return r;
  }
  /// Lanewise rotate left by K in [1, 63].
  template <int K>
  WideWord rotl() const {
    return shl(K) | shr(64 - K);
  }

  bool nonzero() const {
    Word acc = 0;
    for (std::size_t i = 0; i < kWords; ++i) {
      acc |= v[i];
    }
    return acc != 0;
  }

  std::uint64_t popcount() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kWords; ++i) {
      total += static_cast<std::uint64_t>(std::popcount(v[i]));
    }
    return total;
  }

  Word xor_fold() const {
    return v[0] ^ v[1] ^ v[2] ^ v[3] ^ v[4] ^ v[5] ^ v[6] ^ v[7];
  }
};

#endif

/// Span kernels: full-lane main loop + scalar tail over arbitrary word
/// counts. These are the library-wide replacements for hand-rolled
/// `for (w) dst[w] op= src[w]` loops.
namespace wide {

inline void xor_words(Word* dst, const Word* src, std::size_t count) {
  std::size_t i = 0;
  for (; i + WideWord::kWords <= count; i += WideWord::kWords) {
    (WideWord::load(dst + i) ^ WideWord::load(src + i)).store(dst + i);
  }
  for (; i < count; ++i) {
    dst[i] ^= src[i];
  }
}

/// dst ^= ~src (the "reference outcome is 1" branch of frame recording).
inline void xor_not_words(Word* dst, const Word* src, std::size_t count) {
  std::size_t i = 0;
  for (; i + WideWord::kWords <= count; i += WideWord::kWords) {
    (WideWord::load(dst + i) ^ ~WideWord::load(src + i)).store(dst + i);
  }
  for (; i < count; ++i) {
    dst[i] ^= ~src[i];
  }
}

inline void and_words(Word* dst, const Word* src, std::size_t count) {
  std::size_t i = 0;
  for (; i + WideWord::kWords <= count; i += WideWord::kWords) {
    (WideWord::load(dst + i) & WideWord::load(src + i)).store(dst + i);
  }
  for (; i < count; ++i) {
    dst[i] &= src[i];
  }
}

/// dst &= ~src (mask removal; one andnot per lane).
inline void andnot_words(Word* dst, const Word* src, std::size_t count) {
  std::size_t i = 0;
  for (; i + WideWord::kWords <= count; i += WideWord::kWords) {
    andnot(WideWord::load(src + i), WideWord::load(dst + i)).store(dst + i);
  }
  for (; i < count; ++i) {
    dst[i] &= ~src[i];
  }
}

/// dst ^= a & b (masked flip; the noise engine's pattern deposit).
inline void xor_masked_words(Word* dst, const Word* a, const Word* b,
                             std::size_t count) {
  std::size_t i = 0;
  for (; i + WideWord::kWords <= count; i += WideWord::kWords) {
    (WideWord::load(dst + i) ^ (WideWord::load(a + i) & WideWord::load(b + i)))
        .store(dst + i);
  }
  for (; i < count; ++i) {
    dst[i] ^= a[i] & b[i];
  }
}

inline void or_words(Word* dst, const Word* src, std::size_t count) {
  std::size_t i = 0;
  for (; i + WideWord::kWords <= count; i += WideWord::kWords) {
    (WideWord::load(dst + i) | WideWord::load(src + i)).store(dst + i);
  }
  for (; i < count; ++i) {
    dst[i] |= src[i];
  }
}

inline void copy_words(Word* dst, const Word* src, std::size_t count) {
  std::size_t i = 0;
  for (; i + WideWord::kWords <= count; i += WideWord::kWords) {
    WideWord::load(src + i).store(dst + i);
  }
  for (; i < count; ++i) {
    dst[i] = src[i];
  }
}

/// dst = ~src.
inline void not_copy_words(Word* dst, const Word* src, std::size_t count) {
  std::size_t i = 0;
  for (; i + WideWord::kWords <= count; i += WideWord::kWords) {
    (~WideWord::load(src + i)).store(dst + i);
  }
  for (; i < count; ++i) {
    dst[i] = ~src[i];
  }
}

inline void swap_words(Word* a, Word* b, std::size_t count) {
  std::size_t i = 0;
  for (; i + WideWord::kWords <= count; i += WideWord::kWords) {
    const WideWord va = WideWord::load(a + i);
    WideWord::load(b + i).store(a + i);
    va.store(b + i);
  }
  for (; i < count; ++i) {
    const Word t = a[i];
    a[i] = b[i];
    b[i] = t;
  }
}

inline void fill_words(Word* dst, Word value, std::size_t count) {
  std::size_t i = 0;
  const WideWord v = WideWord::splat(value);
  for (; i + WideWord::kWords <= count; i += WideWord::kWords) {
    v.store(dst + i);
  }
  for (; i < count; ++i) {
    dst[i] = value;
  }
}

inline void clear_words(Word* dst, std::size_t count) {
  fill_words(dst, 0, count);
}

inline std::size_t count_ones(const Word* p, std::size_t count) {
  std::uint64_t total = 0;
  std::size_t i = 0;
  for (; i + WideWord::kWords <= count; i += WideWord::kWords) {
    total += WideWord::load(p + i).popcount();
  }
  for (; i < count; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(p[i]));
  }
  return static_cast<std::size_t>(total);
}

inline bool any_nonzero(const Word* p, std::size_t count) {
  std::size_t i = 0;
  for (; i + WideWord::kWords <= count; i += WideWord::kWords) {
    if (WideWord::load(p + i).nonzero()) {
      return true;
    }
  }
  for (; i < count; ++i) {
    if (p[i] != 0) {
      return true;
    }
  }
  return false;
}

/// XOR-fold of a & b over the span: the word whose parity is <a, b>.
inline Word xor_and_fold(const Word* a, const Word* b, std::size_t count) {
  WideWord acc = WideWord::zero();
  std::size_t i = 0;
  for (; i + WideWord::kWords <= count; i += WideWord::kWords) {
    acc ^= WideWord::load(a + i) & WideWord::load(b + i);
  }
  Word tail = acc.xor_fold();
  for (; i < count; ++i) {
    tail ^= a[i] & b[i];
  }
  return tail;
}

inline bool spans_equal(const Word* a, const Word* b, std::size_t count) {
  std::size_t i = 0;
  for (; i + WideWord::kWords <= count; i += WideWord::kWords) {
    if ((WideWord::load(a + i) ^ WideWord::load(b + i)).nonzero()) {
      return false;
    }
  }
  for (; i < count; ++i) {
    if (a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace wide

}  // namespace symphase
