// The noise engine's event visitors against the fills built on them:
// from the same generator state, BiasedBitPlan::for_each_event must
// visit exactly the bits fill() sets (or clears), PauliPatternDrawer
// must draw the patterns fill_pauli_patterns deposits, and both paths
// must leave the generator at the same next draw. The symbol-major
// sampler relies on this to reproduce the dense reference bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/bits.hpp"
#include "common/noise.hpp"
#include "common/rng.hpp"

namespace symphase {
namespace {

std::vector<std::size_t> set_bits(const std::vector<Word>& words) {
  std::vector<std::size_t> bits;
  for (std::size_t b = 0; b < words.size() * kWordBits; ++b) {
    if (get_bit(words.data(), b)) {
      bits.push_back(b);
    }
  }
  return bits;
}

class EventVisitorTest
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(EventVisitorTest, PositionsAreTheBitsFillSets) {
  const auto [p, words] = GetParam();
  const BiasedBitPlan plan(p);
  ASSERT_EQ(plan.strategy(), BiasStrategy::kGeometric);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng filled(seed);
    std::vector<Word> out(words);
    plan.fill(filled, out.data(), words);

    Rng visited(seed);
    std::vector<std::size_t> positions;
    plan.for_each_event(visited, words,
                        [&](std::size_t bit) { positions.push_back(bit); });
    EXPECT_EQ(positions, set_bits(out)) << "p=" << p << " seed=" << seed;
    EXPECT_EQ(visited(), filled()) << "p=" << p << " seed=" << seed;
  }
}

TEST_P(EventVisitorTest, DrawerPatternsMatchFillPauliPatterns) {
  const auto [p, words] = GetParam();
  const BiasedBitPlan plan(p);
  // The drawer mirrors fill_pauli_patterns' per-event path. The scatter
  // uses it only when the channel's p selects that path; at p * 64 >= 1
  // the fill takes word-parallel rounds instead, so a sparse hint forces
  // the per-event path here to check the drawer on denser events too.
  const double hint = sparse_pauli_patterns(p) ? p : 0.0;
  for (const unsigned members : {2u, 4u}) {
    for (std::uint64_t seed = 11; seed <= 14; ++seed) {
      Rng filled(seed);
      std::vector<Word> events(words);
      std::vector<std::vector<Word>> masks(members, std::vector<Word>(words));
      std::vector<Word*> mask_ptrs;
      for (auto& m : masks) {
        mask_ptrs.push_back(m.data());
      }
      mask_ptrs[1] = nullptr;  // an unused member still draws its bits
      plan.fill(filled, events.data(), words);
      fill_pauli_patterns(filled, events.data(), words, members,
                          mask_ptrs.data(), hint);

      Rng visited(seed);
      std::vector<std::size_t> positions;
      plan.for_each_event(visited, words,
                          [&](std::size_t bit) { positions.push_back(bit); });
      std::vector<std::vector<Word>> got(members, std::vector<Word>(words));
      PauliPatternDrawer drawer(members);
      for (const std::size_t bit : positions) {
        const std::uint64_t pattern = drawer.next(visited);
        ASSERT_GE(pattern, 1u);
        ASSERT_LT(pattern, std::uint64_t{1} << members);
        for (unsigned j = 0; j < members; ++j) {
          if (((pattern >> j) & 1) != 0 && j != 1) {
            flip_bit(got[j].data(), bit);
          }
        }
      }
      for (unsigned j = 0; j < members; ++j) {
        if (j != 1) {
          EXPECT_EQ(got[j], masks[j])
              << "p=" << p << " members=" << members << " j=" << j;
        }
      }
      EXPECT_EQ(visited(), filled())
          << "p=" << p << " members=" << members << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SparseBand, EventVisitorTest,
    ::testing::Combine(::testing::Values(1e-4, 1e-3, 0.01, 0.02, 0.03),
                       ::testing::Values(std::size_t{1}, std::size_t{37},
                                         std::size_t{128})));

TEST(EventVisitor, InvertedPlanVisitsTheClearedBits) {
  const BiasedBitPlan plan(0.99);
  ASSERT_EQ(plan.strategy(), BiasStrategy::kGeometricInverted);
  constexpr std::size_t kWords = 128;
  Rng filled(5);
  std::vector<Word> out(kWords);
  plan.fill(filled, out.data(), kWords);
  for (Word& w : out) {
    w = ~w;
  }
  Rng visited(5);
  std::vector<std::size_t> positions;
  plan.for_each_event(visited, kWords,
                      [&](std::size_t bit) { positions.push_back(bit); });
  EXPECT_EQ(positions, set_bits(out));
  EXPECT_EQ(visited(), filled());
}

}  // namespace
}  // namespace symphase
