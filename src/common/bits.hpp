#pragma once

/// \file bits.hpp
/// Word-level bit manipulation shared by the packed bit containers.
///
/// All bit containers in the library pack bits little-endian into 64-bit
/// words: bit index b lives in word b/64 at position b%64. The simulator's
/// hot loops run over whole words; these helpers keep the index arithmetic
/// in one place.

#include <bit>
#include <cstddef>
#include <cstdint>

namespace symphase {

using Word = std::uint64_t;

inline constexpr std::size_t kWordBits = 64;

/// Number of 64-bit words needed to hold `bits` bits.
constexpr std::size_t words_for_bits(std::size_t bits) {
  return (bits + kWordBits - 1) / kWordBits;
}

constexpr std::size_t word_index(std::size_t bit) { return bit / kWordBits; }

constexpr std::size_t bit_offset(std::size_t bit) { return bit % kWordBits; }

constexpr Word bit_mask(std::size_t bit) {
  return Word{1} << bit_offset(bit);
}

/// Mask covering the valid low bits of the final word of a `bits`-bit
/// container; all-ones when `bits` is a multiple of 64.
constexpr Word tail_mask(std::size_t bits) {
  const std::size_t rem = bits % kWordBits;
  return rem == 0 ? ~Word{0} : (Word{1} << rem) - 1;
}

inline bool get_bit(const Word* words, std::size_t bit) {
  return (words[word_index(bit)] >> bit_offset(bit)) & 1;
}

inline void set_bit(Word* words, std::size_t bit, bool value) {
  const Word mask = bit_mask(bit);
  if (value) {
    words[word_index(bit)] |= mask;
  } else {
    words[word_index(bit)] &= ~mask;
  }
}

inline void flip_bit(Word* words, std::size_t bit) {
  words[word_index(bit)] ^= bit_mask(bit);
}

inline int popcount(Word w) { return std::popcount(w); }

/// Parity (sum mod 2) of all bits in a word.
inline bool parity(Word w) { return std::popcount(w) & 1; }

/// Calls f(i) for every set bit i in [begin, end) of a packed span, in
/// increasing order.
template <typename F>
void for_each_set_bit(const Word* words, std::size_t begin, std::size_t end,
                      F&& f) {
  if (begin >= end) {
    return;
  }
  const std::size_t last = word_index(end - 1);
  for (std::size_t w = word_index(begin); w <= last; ++w) {
    Word bits = words[w];
    if (w == word_index(begin)) {
      bits &= ~Word{0} << bit_offset(begin);
    }
    if (w == last) {
      bits &= tail_mask(end);
    }
    for (; bits != 0; bits &= bits - 1) {
      f(w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

/// Lowest set bit in [begin, end) of a packed span, or `end` if none.
inline std::size_t first_set_bit(const Word* words, std::size_t begin,
                                 std::size_t end) {
  for (std::size_t w = word_index(begin); w * kWordBits < end; ++w) {
    Word bits = words[w];
    if (w == word_index(begin)) {
      bits &= ~Word{0} << bit_offset(begin);
    }
    if (bits != 0) {
      const std::size_t i =
          w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
      return i < end ? i : end;
    }
  }
  return end;
}

constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

/// Round `v` up to a multiple of `m` (m must be a power of two).
constexpr std::size_t round_up_pow2(std::size_t v, std::size_t m) {
  return (v + m - 1) & ~(m - 1);
}

}  // namespace symphase
