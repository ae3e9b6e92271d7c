// SIMD/scalar parity tests for the WideWord kernel layer: every wide op
// must be bit-identical to a naive one-word-at-a-time reference,
// regardless of which backend (AVX-512 / AVX2 / scalar) was compiled in.

#include "common/simd_word.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "bitvec/bit_matrix.hpp"
#include "bitvec/transpose.hpp"
#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "tableau/dense_row_ops.hpp"
#include "tableau/row_kernels.hpp"
#include "tableau/shape.hpp"

namespace symphase {
namespace {

AlignedWordVec random_words(Rng& rng, std::size_t count) {
  AlignedWordVec v(count);
  for (auto& w : v) {
    w = rng.next_word();
  }
  return v;
}

TEST(WideWord, LaneOpsMatchScalar) {
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    const AlignedWordVec a = random_words(rng, WideWord::kWords);
    const AlignedWordVec b = random_words(rng, WideWord::kWords);
    const WideWord wa = WideWord::load(a.data());
    const WideWord wb = WideWord::load(b.data());

    Word out[WideWord::kWords];
    (wa ^ wb).store(out);
    for (std::size_t i = 0; i < WideWord::kWords; ++i) {
      EXPECT_EQ(out[i], a[i] ^ b[i]);
    }
    (wa & wb).store(out);
    for (std::size_t i = 0; i < WideWord::kWords; ++i) {
      EXPECT_EQ(out[i], a[i] & b[i]);
    }
    (wa | wb).store(out);
    for (std::size_t i = 0; i < WideWord::kWords; ++i) {
      EXPECT_EQ(out[i], a[i] | b[i]);
    }
    (~wa).store(out);
    for (std::size_t i = 0; i < WideWord::kWords; ++i) {
      EXPECT_EQ(out[i], ~a[i]);
    }
    andnot(wa, wb).store(out);
    for (std::size_t i = 0; i < WideWord::kWords; ++i) {
      EXPECT_EQ(out[i], ~a[i] & b[i]);
    }

    std::uint64_t expected_pop = 0;
    Word expected_fold = 0;
    for (std::size_t i = 0; i < WideWord::kWords; ++i) {
      expected_pop += static_cast<std::uint64_t>(popcount(a[i]));
      expected_fold ^= a[i];
    }
    EXPECT_EQ(wa.popcount(), expected_pop);
    EXPECT_EQ(wa.xor_fold(), expected_fold);
    EXPECT_TRUE(wa.nonzero() == (expected_fold != 0 || expected_pop != 0));
  }
  EXPECT_FALSE(WideWord::zero().nonzero());
  EXPECT_EQ(WideWord::zero().popcount(), 0u);
  EXPECT_EQ(WideWord::splat(~Word{0}).popcount(),
            static_cast<std::uint64_t>(WideWord::kBits));
}

// Span helpers over sizes that exercise both the wide main loop and the
// scalar tail (including counts below one lane).
TEST(WideSpans, MatchScalarReference) {
  Rng rng(202);
  for (const std::size_t count : {0ul, 1ul, 3ul, 7ul, 8ul, 9ul, 15ul, 16ul,
                                  31ul, 64ul, 100ul}) {
    const AlignedWordVec a0 = random_words(rng, count);
    const AlignedWordVec b0 = random_words(rng, count);

    AlignedWordVec a = a0;
    wide::xor_words(a.data(), b0.data(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(a[i], a0[i] ^ b0[i]);
    }

    a = a0;
    wide::xor_not_words(a.data(), b0.data(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(a[i], a0[i] ^ ~b0[i]);
    }

    a = a0;
    wide::and_words(a.data(), b0.data(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(a[i], a0[i] & b0[i]);
    }

    a = a0;
    wide::or_words(a.data(), b0.data(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(a[i], a0[i] | b0[i]);
    }

    a.assign(count, 0);
    wide::copy_words(a.data(), b0.data(), count);
    EXPECT_TRUE(wide::spans_equal(a.data(), b0.data(), count));

    wide::not_copy_words(a.data(), b0.data(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(a[i], ~b0[i]);
    }

    a = a0;
    AlignedWordVec b = b0;
    wide::swap_words(a.data(), b.data(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(a[i], b0[i]);
      EXPECT_EQ(b[i], a0[i]);
    }

    wide::fill_words(a.data(), 0xDEADBEEFCAFEF00Dull, count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(a[i], 0xDEADBEEFCAFEF00Dull);
    }
    wide::clear_words(a.data(), count);
    EXPECT_FALSE(wide::any_nonzero(a.data(), count));

    std::size_t expected_ones = 0;
    Word expected_fold = 0;
    for (std::size_t i = 0; i < count; ++i) {
      expected_ones += static_cast<std::size_t>(popcount(a0[i]));
      expected_fold ^= a0[i] & b0[i];
    }
    EXPECT_EQ(wide::count_ones(a0.data(), count), expected_ones);
    EXPECT_EQ(wide::xor_and_fold(a0.data(), b0.data(), count), expected_fold);
    if (count > 0) {
      EXPECT_TRUE(wide::any_nonzero(a0.data(), count) ||
                  expected_ones == 0);
    }
  }
}

// Scalar reference for the rowsum tally, copied from the documented
// single-word semantics.
void reference_accumulate(Word x1, Word z1, Word x2, Word z2,
                          long long& plus, long long& minus) {
  const Word plus_mask =
      (x1 & z1 & ~x2 & z2) | (x1 & ~z1 & x2 & z2) | (~x1 & z1 & x2 & ~z2);
  const Word minus_mask =
      (x1 & z1 & x2 & ~z2) | (x1 & ~z1 & ~x2 & z2) | (~x1 & z1 & x2 & z2);
  plus += popcount(plus_mask);
  minus += popcount(minus_mask);
}

TEST(RowKernels, RowsumMatchesScalarReference) {
  Rng rng(303);
  for (const std::size_t count : {1ul, 5ul, 8ul, 13ul, 16ul, 40ul}) {
    AlignedWordVec dx = random_words(rng, count);
    AlignedWordVec dz = random_words(rng, count);
    const AlignedWordVec sx = random_words(rng, count);
    const AlignedWordVec sz = random_words(rng, count);

    // Reference: word-at-a-time tally + xor.
    long long ref_plus = 0;
    long long ref_minus = 0;
    AlignedWordVec rx = dx;
    AlignedWordVec rz = dz;
    for (std::size_t i = 0; i < count; ++i) {
      reference_accumulate(rx[i], rz[i], sx[i], sz[i], ref_plus, ref_minus);
      rx[i] ^= sx[i];
      rz[i] ^= sz[i];
    }

    PhaseTally tally;
    rowsum_xor_accumulate(dx.data(), dz.data(), sx.data(), sz.data(), count,
                          tally);
    EXPECT_EQ(tally.plus, ref_plus);
    EXPECT_EQ(tally.minus, ref_minus);
    EXPECT_TRUE(wide::spans_equal(dx.data(), rx.data(), count));
    EXPECT_TRUE(wide::spans_equal(dz.data(), rz.data(), count));
  }
}

// dense_rows::row_mult against a from-scratch scalar reimplementation of
// the A-G rowsum over the same storage image.
TEST(RowKernels, DenseRowMultMatchesScalarReference) {
  Rng rng(404);
  const TableauShape shape(/*n=*/150, /*col_align=*/64, /*phase_capacity=*/70);
  const std::size_t phase_words_used = words_for_bits(70);
  for (int trial = 0; trial < 20; ++trial) {
    BitMatrix bits = BitMatrix::random(shape.num_rows(), shape.num_cols(),
                                       rng);
    // Rowsum requires the Pauli product to have a real phase (even i
    // exponent); build rows whose product is guaranteed real by making
    // src and dst share their X/Z support pattern (product of a row with
    // itself has exponent 0 pairings), then perturbing only the phase
    // band of src.
    const std::size_t dst = 3;
    const std::size_t src = 7;
    {
      Word* s = bits.row(src);
      const Word* d = bits.row(dst);
      for (std::size_t w = 0; w < 2 * shape.xz_words(); ++w) {
        s[w] = d[w];
      }
    }

    BitMatrix ref = bits;
    // Scalar reference.
    {
      Word* d = ref.row(dst);
      const Word* s = ref.row(src);
      const std::size_t wx = shape.xz_words();
      long long plus = 0;
      long long minus = 0;
      for (std::size_t w = 0; w < wx; ++w) {
        reference_accumulate(d[w], d[wx + w], s[w], s[wx + w], plus, minus);
        d[w] ^= s[w];
        d[wx + w] ^= s[wx + w];
      }
      const int exponent = static_cast<int>((((plus - minus) % 4) + 4) % 4);
      ASSERT_EQ(exponent % 2, 0);
      const std::size_t pw = shape.phase_col_base() / kWordBits;
      for (std::size_t w = 0; w < phase_words_used; ++w) {
        d[pw + w] ^= s[pw + w];
      }
      if (exponent == 2) {
        d[pw] ^= Word{1};
      }
    }

    dense_rows::row_mult(bits, shape, phase_words_used, dst, src);
    EXPECT_EQ(bits, ref) << "trial " << trial;
  }
}

TEST(WideSpans, XorWordsMatchesScalar) {
  Rng rng(505);
  for (const std::size_t count : {1ul, 8ul, 9ul, 33ul}) {
    AlignedWordVec dst = random_words(rng, count);
    const AlignedWordVec src = random_words(rng, count);
    AlignedWordVec ref = dst;
    for (std::size_t i = 0; i < count; ++i) {
      ref[i] ^= src[i];
    }
    wide::xor_words(dst.data(), src.data(), count);
    EXPECT_TRUE(wide::spans_equal(dst.data(), ref.data(), count));
  }
}

TEST(WideWord, AddShiftLanesMatchScalar) {
  Rng rng(707);
  alignas(64) Word a[WideWord::kWords];
  alignas(64) Word b[WideWord::kWords];
  alignas(64) Word got[WideWord::kWords];
  for (std::size_t i = 0; i < WideWord::kWords; ++i) {
    a[i] = rng.next_word();
    b[i] = rng.next_word();
  }
  const WideWord va = WideWord::load(a);
  const WideWord vb = WideWord::load(b);
  (va + vb).store(got);
  for (std::size_t i = 0; i < WideWord::kWords; ++i) {
    EXPECT_EQ(got[i], a[i] + b[i]);
  }
  for (const int k : {1, 7, 17, 45, 63}) {
    va.shl(k).store(got);
    for (std::size_t i = 0; i < WideWord::kWords; ++i) {
      EXPECT_EQ(got[i], a[i] << k);
    }
    va.shr(k).store(got);
    for (std::size_t i = 0; i < WideWord::kWords; ++i) {
      EXPECT_EQ(got[i], a[i] >> k);
    }
  }
  // The two rotates of the xoshiro lanes.
  va.rotl<7>().store(got);
  for (std::size_t i = 0; i < WideWord::kWords; ++i) {
    EXPECT_EQ(got[i], std::rotl(a[i], 7));
  }
  va.rotl<45>().store(got);
  for (std::size_t i = 0; i < WideWord::kWords; ++i) {
    EXPECT_EQ(got[i], std::rotl(a[i], 45));
  }
  // The lanewise multiply, over random lanes and by the splatted
  // constants of the lanes' splitmix64 seeding.
  (va * vb).store(got);
  for (std::size_t i = 0; i < WideWord::kWords; ++i) {
    EXPECT_EQ(got[i], a[i] * b[i]);
  }
  for (const Word c : {Word{0xBF58476D1CE4E5B9ull},
                       Word{0x94D049BB133111EBull}, Word{1}, ~Word{0}}) {
    (va * WideWord::splat(c)).store(got);
    for (std::size_t i = 0; i < WideWord::kWords; ++i) {
      EXPECT_EQ(got[i], a[i] * c);
    }
  }
}

TEST(WideSpans, AndnotAndMaskedXorMatchScalar) {
  Rng rng(808);
  for (const std::size_t count : {1ul, 8ul, 9ul, 33ul}) {
    AlignedWordVec dst = random_words(rng, count);
    const AlignedWordVec src = random_words(rng, count);
    const AlignedWordVec mask = random_words(rng, count);
    AlignedWordVec ref = dst;
    for (std::size_t i = 0; i < count; ++i) {
      ref[i] &= ~src[i];
    }
    wide::andnot_words(dst.data(), src.data(), count);
    EXPECT_TRUE(wide::spans_equal(dst.data(), ref.data(), count));

    for (std::size_t i = 0; i < count; ++i) {
      ref[i] ^= src[i] & mask[i];
    }
    wide::xor_masked_words(dst.data(), src.data(), mask.data(), count);
    EXPECT_TRUE(wide::spans_equal(dst.data(), ref.data(), count));
  }
}

// The blocked layout's SIMD tile transpose against the generic
// out-of-place 64x64-tiled transpose on a full 512x512 tile.
TEST(Transpose, Tile512AgreesWithBitMatrixTranspose) {
  Rng rng(606);
  AlignedWordVec tile(512 * 8);
  for (auto& w : tile) {
    w = rng.next_word();
  }
  AlignedWordVec expected(512 * 8);
  transpose_bit_matrix(tile.data(), /*wr=*/8, /*wc=*/8, expected.data());

  transpose_tile512_inplace(tile.data());
  EXPECT_TRUE(wide::spans_equal(tile.data(), expected.data(), tile.size()));
}

}  // namespace
}  // namespace symphase
