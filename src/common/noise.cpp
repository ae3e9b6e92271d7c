#include "common/noise.hpp"

#include <bit>
#include <cmath>
#include <optional>

#include "common/check.hpp"
#include "common/rng_lanes.hpp"
#include "common/simd_word.hpp"

namespace symphase {

namespace {

constexpr unsigned kMaxPatternMembers = 6;

/// Refinement pass for a set digit of p: undecided bits where the coin
/// is 0 (u_j < p_j) resolve to 1; bits where the coin is 1 stay
/// undecided. Returns whether any bit is still undecided.
bool refine_digit_one(Word* out, Word* undecided, const Word* r,
                      std::size_t n) {
  WideWord acc = WideWord::zero();
  std::size_t i = 0;
  for (; i + WideWord::kWords <= n; i += WideWord::kWords) {
    const WideWord u = WideWord::load(undecided + i);
    const WideWord rv = WideWord::load(r + i);
    (WideWord::load(out + i) | andnot(rv, u)).store(out + i);
    const WideWord nu = u & rv;
    nu.store(undecided + i);
    acc |= nu;
  }
  Word tail = 0;
  for (; i < n; ++i) {
    out[i] |= undecided[i] & ~r[i];
    undecided[i] &= r[i];
    tail |= undecided[i];
  }
  return acc.nonzero() || tail != 0;
}

/// Refinement pass for a zero digit of p: undecided bits where the coin
/// is 1 (u_j > p_j) resolve to 0; the rest stay undecided.
bool refine_digit_zero(Word* undecided, const Word* r, std::size_t n) {
  WideWord acc = WideWord::zero();
  std::size_t i = 0;
  for (; i + WideWord::kWords <= n; i += WideWord::kWords) {
    const WideWord nu = andnot(WideWord::load(r + i),
                               WideWord::load(undecided + i));
    nu.store(undecided + i);
    acc |= nu;
  }
  Word tail = 0;
  for (; i < n; ++i) {
    undecided[i] &= ~r[i];
    tail |= undecided[i];
  }
  return acc.nonzero() || tail != 0;
}

/// Per-event pattern draws for sparse event blocks: one
/// PauliPatternDrawer per block, deposited with single-bit XORs — cheap
/// because set bits are few, and no counting pre-scan is needed (the
/// word walk skips empty words at one test each). Each member's XOR is
/// masked by its pattern bit rather than branched on: the bit is a fresh
/// coin, a branch no predictor learns.
void sparse_patterns(Rng& rng, const Word* events, std::size_t n,
                     unsigned members, Word* const* masks,
                     std::size_t mask_offset) {
  PauliPatternDrawer drawer(members);
  for (std::size_t w = 0; w < n; ++w) {
    Word bits = events[w];
    while (bits != 0) {
      const Word bit = bits & (0 - bits);
      bits ^= bit;
      const std::uint64_t pattern = drawer.next(rng);
      for (unsigned j = 0; j < members; ++j) {
        if (masks[j] != nullptr) {
          masks[j][mask_offset + w] ^= bit & (0 - ((pattern >> j) & 1));
        }
      }
    }
  }
}

/// One dense word-block of fill_pauli_patterns: word-parallel rejection
/// rounds (draw `members` coin words per event word; an event accepts
/// once any coin is set, conditioning the joint coins to uniform over
/// non-identity patterns); once the still-rejected population is thin,
/// the sparse per-event path finishes the stragglers.
void dense_patterns(Rng& rng, const Word* events, std::size_t n,
                    unsigned members, Word* const* masks,
                    std::size_t mask_offset) {
  alignas(64) Word remaining[kNoiseBlockWords];
  alignas(64) Word accept[kNoiseBlockWords];
  alignas(64) Word coin[kMaxPatternMembers][kNoiseBlockWords];
  wide::copy_words(remaining, events, n);
  for (;;) {
    for (unsigned j = 0; j < members; ++j) {
      fill_random_words(rng, coin[j], n);
    }
    // accept = remaining & (coin_0 | ... | coin_{m-1})
    wide::copy_words(accept, coin[0], n);
    for (unsigned j = 1; j < members; ++j) {
      wide::or_words(accept, coin[j], n);
    }
    wide::and_words(accept, remaining, n);
    for (unsigned j = 0; j < members; ++j) {
      if (masks[j] != nullptr) {
        wide::xor_masked_words(masks[j] + mask_offset, accept, coin[j], n);
      }
    }
    // accept is a subset of remaining, so XOR removes exactly it.
    wide::xor_words(remaining, accept, n);
    const std::size_t rem_total = wide::count_ones(remaining, n);
    if (rem_total == 0) {
      return;
    }
    if (rem_total * 8 < n) {
      sparse_patterns(rng, remaining, n, members, masks, mask_offset);
      return;
    }
  }
}

}  // namespace

BiasedBitPlan::BiasedBitPlan(double p) : p_(p) {
  if (!(p > 0.0)) {
    strategy_ = BiasStrategy::kZero;
  } else if (p >= 1.0) {
    strategy_ = BiasStrategy::kOne;
  } else if (p == 0.5) {
    strategy_ = BiasStrategy::kCoin;
  } else if (p < kSparseCrossover || p > 1.0 - kSparseCrossover) {
    strategy_ = p < 0.5 ? BiasStrategy::kGeometric
                        : BiasStrategy::kGeometricInverted;
    event_rate_ = p < 0.5 ? p : 1.0 - p;
    inv_log1m_ = 1.0 / std::log1p(-event_rate_);
  } else {
    strategy_ = BiasStrategy::kRefine;
    // digits_ = p * 2^64, exact: p in [2^-5, 1) puts all 53 significand
    // bits of p inside the top 58 digit positions.
    int exp = 0;
    const double m = std::frexp(p, &exp);  // p = m * 2^exp, m in [0.5, 1)
    const auto mantissa = static_cast<std::uint64_t>(std::ldexp(m, 53));
    digits_ = mantissa << (11 + exp);
    num_digits_ = 64 - std::countr_zero(digits_);
  }
}

void BiasedBitPlan::fill_refine(Rng& rng, Word* out, std::size_t count) const {
  alignas(64) Word undecided[kNoiseBlockWords];
  alignas(64) Word r[kNoiseBlockWords];
  for (std::size_t off = 0; off < count; off += kNoiseBlockWords) {
    const std::size_t n =
        count - off < kNoiseBlockWords ? count - off : kNoiseBlockWords;
    Word* o = out + off;
    wide::clear_words(o, n);
    wide::fill_words(undecided, ~Word{0}, n);
    const bool lanes_pay = n >= 64;  // fill_random_words' serial cutoff
    // One lane engine feeds every digit pass of the block: seeding (8
    // serial parent draws + 32 splitmix steps) used to rerun inside
    // each of the ~15 fill_random_words calls and dominated the pass
    // cost; hoisting it is the fused-RNG item from PR 4. The coins
    // still land in an L1-resident scratch block first — combining in
    // registers instead measured neutral on AVX-512 and 1.4x *slower*
    // on the scalar backend (interleaving the generator update with
    // the combine defeats GCC's autovectorizer), and the scratch shape
    // keeps the consumed word order identical on every backend.
    std::optional<XoshiroLanes> lanes;
    if (lanes_pay) {
      lanes.emplace(rng);
    }
    // Digit j of p decides undecided bits whose coin differs from it;
    // the loop ends when every bit is decided (expected after
    // ~log2(block bits) + 2 digits) or p's expansion is exhausted
    // (remaining undecided bits correctly resolve to 0: u > p).
    for (int j = 0; j < num_digits_; ++j) {
      if (lanes_pay) {
        lanes->fill(r, n);
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          r[i] = rng.next_word();
        }
      }
      const bool digit = ((digits_ >> (63 - j)) & 1) != 0;
      const bool alive = digit ? refine_digit_one(o, undecided, r, n)
                               : refine_digit_zero(undecided, r, n);
      if (!alive) {
        break;
      }
    }
  }
}

void BiasedBitPlan::fill_geometric(Rng& rng, Word* out,
                                   std::size_t count) const {
  if (strategy_ == BiasStrategy::kGeometricInverted) {
    wide::fill_words(out, ~Word{0}, count);
    for_each_event(rng, count, [out](std::size_t bit) {
      out[word_index(bit)] &= ~bit_mask(bit);
    });
  } else {
    wide::clear_words(out, count);
    for_each_event(rng, count, [out](std::size_t bit) {
      out[word_index(bit)] |= bit_mask(bit);
    });
  }
}

void BiasedBitPlan::fill(Rng& rng, Word* out, std::size_t count) const {
  if (count == 0) {
    return;
  }
  switch (strategy_) {
    case BiasStrategy::kZero:
      wide::clear_words(out, count);
      return;
    case BiasStrategy::kOne:
      wide::fill_words(out, ~Word{0}, count);
      return;
    case BiasStrategy::kCoin:
      fill_random_words(rng, out, count);
      return;
    case BiasStrategy::kGeometric:
    case BiasStrategy::kGeometricInverted:
      fill_geometric(rng, out, count);
      return;
    case BiasStrategy::kRefine:
      fill_refine(rng, out, count);
      return;
  }
}

void fill_pauli_patterns(Rng& rng, const Word* events, std::size_t words,
                         unsigned members, Word* const* masks,
                         double event_probability) {
  SYMPHASE_ASSERT(members >= 1 && members <= kMaxPatternMembers);
  // Path choice by expected density, not by counting: sparse blocks then
  // skip every scan except the deposit walk itself.
  const bool dense = !sparse_pauli_patterns(event_probability);
  for (std::size_t off = 0; off < words; off += kNoiseBlockWords) {
    const std::size_t n =
        words - off < kNoiseBlockWords ? words - off : kNoiseBlockWords;
    if (dense) {
      dense_patterns(rng, events + off, n, members, masks, off);
    } else {
      sparse_patterns(rng, events + off, n, members, masks, off);
    }
  }
}

}  // namespace symphase
