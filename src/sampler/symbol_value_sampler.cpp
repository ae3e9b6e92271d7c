#include "sampler/symbol_value_sampler.hpp"

#include <algorithm>

#include "common/parallel.hpp"
#include "common/simd_word.hpp"

namespace symphase {

namespace {

// A sparse pattern group's events are drawn with one PauliPatternDrawer,
// as fill_pauli_patterns does per noise block.
static_assert(kSampleShardWords <= kNoiseBlockWords);

constexpr std::uint32_t kNoRow = UINT32_MAX;
constexpr unsigned kMaxMembers = 4;

// Cost model behind the scatter's path choice (docs/performance.md,
// "Which path a group takes"), per word of shots. An event group flips
// 64 · q · W output bits, where W is its Mᵀ weight (readers, summed over
// its used members) and q the chance that an event flips a given member
// (the group's flip_probability()); a flip costs about kFlipWords word
// XORs. A scratch row costs W word XORs plus a fixed overhead: clearing
// the row (a one-member group), or also filling the event row and
// scanning it for patterns (a group with a pattern). Fitted on d9
// surface codes.
constexpr double kFlipWords = 6;
constexpr double kSiteOverheadWords = 1;
constexpr double kPatternOverheadWords = 20;

/// Whether the scatter hands a fault group's events to the output rows
/// one bit at a time (an event group) rather than through a scratch row.
/// `weight()` gives the group's W; it is only asked for when p is high
/// enough for W to matter.
template <typename Weight>
bool scatters_events(const SymbolGroup& group, const BiasedBitPlan& plan,
                     Weight&& weight) {
  if (plan.strategy() != BiasStrategy::kGeometric) {
    return false;
  }
  const bool site = group.num_symbols == 1;
  // A group's patterns must be drawn one event at a time.
  if (!site && !sparse_pauli_patterns(group.probability)) {
    return false;
  }
  // Flip cost per reader, less the one word a scratch row XORs for it.
  const double excess =
      kFlipWords * static_cast<double>(kWordBits) *
          group.flip_probability() -
      1;
  const double overhead = site ? kSiteOverheadWords : kPatternOverheadWords;
  return excess <= 0 || static_cast<double>(weight()) * excess < overhead;
}

/// generate_shard_block's deposit: every group is generated straight
/// into its rows of B.
struct BRowDeposit {
  static constexpr bool kScatters = false;

  Word* row(unsigned /*member*/, std::uint32_t b_row) { return b.row(b_row); }
  void commit(const std::uint32_t* /*b_rows*/, unsigned /*members*/) {}

  BitMatrix& b;
};

/// scatter_shard_block's deposit: a bit of B row r lands in every output
/// row that reads r, i.e. in the rows Mᵀ lists for r. Event groups flip
/// single output bits; every other group is generated into scratch rows
/// that commit() XORs into their output rows.
class ScatterDeposit {
 public:
  static constexpr bool kScatters = true;

  ScatterDeposit(const ScatterTargets& targets, BitMatrix& out,
                 std::size_t words)
      : targets_(targets), out_(out), words_(words) {}

  Word* row(unsigned member, std::uint32_t /*b_row*/) {
    // Pattern fills XOR their bits in, so rows start cleared.
    wide::clear_words(scratch_[member], words_);
    return scratch_[member];
  }

  void commit(const std::uint32_t* b_rows, unsigned members) {
    for (unsigned k = 0; k < members; ++k) {
      if (b_rows[k] == kNoRow) {
        continue;
      }
      for (const std::uint32_t t : targets_.readers(b_rows[k])) {
        wide::xor_words(out_.row(t), scratch_[k], words_);
      }
    }
  }

  /// A group's Mᵀ weight: readers, summed over its used members.
  std::size_t weight(const std::uint32_t* b_rows, unsigned members) const {
    std::size_t w = 0;
    for (unsigned k = 0; k < members; ++k) {
      if (b_rows[k] != kNoRow) {
        w += targets_.readers(b_rows[k]).size();
      }
    }
    return w;
  }

  void flip(std::uint32_t b_row, std::size_t bit) {
    const std::size_t w = word_index(bit);
    const Word mask = bit_mask(bit);
    for (const std::uint32_t t : targets_.readers(b_row)) {
      out_.row(t)[w] ^= mask;
    }
  }

 private:
  const ScatterTargets& targets_;
  BitMatrix& out_;
  std::size_t words_;
  alignas(64) Word scratch_[kMaxMembers][kSampleShardWords];
};

}  // namespace

SymbolValueSampler::SymbolValueSampler(const SymbolTable& table,
                                       std::vector<std::uint32_t> used_symbols)
    : table_(table), used_symbols_(std::move(used_symbols)) {
  SYMPHASE_CHECK(std::is_sorted(used_symbols_.begin(), used_symbols_.end()));
  SYMPHASE_CHECK(std::adjacent_find(used_symbols_.begin(),
                                    used_symbols_.end()) ==
                 used_symbols_.end());
  if (!used_symbols_.empty()) {
    SYMPHASE_CHECK(used_symbols_.back() < table_.num_symbols());
    row_lookup_.assign(used_symbols_.back() + 1, 0);
  }
  for (std::size_t r = 0; r < used_symbols_.size(); ++r) {
    row_lookup_[used_symbols_[r]] = static_cast<std::uint32_t>(r) + 1;
  }
  std::uint32_t last_group = UINT32_MAX;
  for (const std::uint32_t s : used_symbols_) {
    const std::uint32_t g = table_.group_index_of(s);
    if (g != last_group) {
      active_groups_.push_back(g);
      last_group = g;
    }
  }
  // Compile the per-group noise plans once (strategy choice + cached
  // constants); only active fault groups ever consult theirs.
  group_plans_.resize(table_.groups().size());
  for (const std::uint32_t gi : active_groups_) {
    const SymbolGroup& group = table_.groups()[gi];
    if (group.kind == SymbolGroupKind::kFault) {
      group_plans_[gi] = BiasedBitPlan(group.probability);
    }
  }
}

template <typename Deposit>
void SymbolValueSampler::walk_groups(std::size_t words, Rng& rng,
                                     Deposit& deposit) const {
  SYMPHASE_ASSERT(words <= kShardWords);
  // Event-bit scratch shared by the pattern groups of this shard.
  alignas(64) Word events[kShardWords];
  // Event positions of a sparse pattern group (scatter only).
  std::vector<std::uint32_t> positions;
  for (const std::uint32_t gi : active_groups_) {
    const SymbolGroup& group = table_.groups()[gi];
    const BiasedBitPlan& plan = group_plans_[gi];
    const unsigned members = group.num_symbols;
    SYMPHASE_ASSERT(members <= kMaxMembers);
    // B row of each member, or kNoRow if that member is unused
    // (row_lookup_ holds row + 1, and 0 - 1 wraps to kNoRow).
    std::uint32_t b_rows[kMaxMembers];
    for (unsigned k = 0; k < members; ++k) {
      const std::uint32_t symbol = group.first_symbol + k;
      b_rows[k] = symbol < row_lookup_.size() ? row_lookup_[symbol] - 1
                                              : kNoRow;
    }

    if constexpr (Deposit::kScatters) {
      // Event groups: the draws are the fills' own visitors, so the
      // generator advances identically.
      if (scatters_events(group, plan,
                          [&] { return deposit.weight(b_rows, members); })) {
        if (members == 1) {
          plan.for_each_event(rng, words, [&](std::size_t bit) {
            deposit.flip(b_rows[0], bit);
          });
          continue;
        }
        // Every event draw precedes every pattern draw, as in the fill.
        positions.clear();
        plan.for_each_event(rng, words, [&](std::size_t bit) {
          positions.push_back(static_cast<std::uint32_t>(bit));
        });
        PauliPatternDrawer drawer(members);
        for (const std::uint32_t bit : positions) {
          const std::uint64_t pattern = drawer.next(rng);
          for (unsigned k = 0; k < members; ++k) {
            if (((pattern >> k) & 1) != 0 && b_rows[k] != kNoRow) {
              deposit.flip(b_rows[k], bit);
            }
          }
        }
        continue;
      }
    }

    Word* rows[kMaxMembers] = {nullptr, nullptr, nullptr, nullptr};
    for (unsigned k = 0; k < members; ++k) {
      if (b_rows[k] != kNoRow) {
        rows[k] = deposit.row(k, b_rows[k]);
      }
    }
    switch (group.kind) {
      case SymbolGroupKind::kConstant:
        SYMPHASE_ASSERT(rows[0] != nullptr);
        wide::fill_words(rows[0], ~Word{0}, words);
        break;
      case SymbolGroupKind::kCoin:
        SYMPHASE_ASSERT(rows[0] != nullptr);
        fill_random_words(rng, rows[0], words);
        break;
      case SymbolGroupKind::kFault:
        // A one-member group's events are its bits. Otherwise, an event
        // Bernoulli(p) per shot, and on an event a uniform non-identity
        // pattern over the members: the engine deposits pattern bits
        // straight into the (cleared) member rows; unused members still
        // consume their pattern randomness but are not materialized.
        if (members == 1) {
          SYMPHASE_ASSERT(rows[0] != nullptr);
          plan.fill(rng, rows[0], words);
          break;
        }
        plan.fill(rng, events, words);
        fill_pauli_patterns(rng, events, words, members, rows,
                            group.probability);
        break;
    }
    deposit.commit(b_rows, members);
  }
}

void SymbolValueSampler::generate_shard_block(std::size_t shard,
                                              std::size_t num_samples,
                                              std::uint64_t seed,
                                              BitMatrix& block) const {
  const ShardExtent e = sample_shard_extent(shard, num_samples);
  SYMPHASE_CHECK(shard < num_sample_shards(num_samples));
  SYMPHASE_CHECK(block.rows() == num_rows());
  SYMPHASE_CHECK(block.words_per_row() >= e.words);
  // The pattern path only XORs fresh pattern bits in, so a reused
  // scratch block starts cleared.
  block.clear_all();
  Rng rng = Rng(seed).stream(shard);
  BRowDeposit deposit{block};
  walk_groups(e.words, rng, deposit);
  if (e.shots % kWordBits != 0) {
    const Word mask = tail_mask(e.shots);
    for (std::size_t r = 0; r < block.rows(); ++r) {
      block.row(r)[e.words - 1] &= mask;
    }
  }
}

void SymbolValueSampler::scatter_shard_block(std::size_t shard,
                                             std::size_t num_samples,
                                             std::uint64_t seed,
                                             const ScatterTargets& targets,
                                             BitMatrix& out) const {
  const ShardExtent e = sample_shard_extent(shard, num_samples);
  SYMPHASE_CHECK(shard < num_sample_shards(num_samples));
  SYMPHASE_CHECK(targets.num_b_rows() == num_rows());
  SYMPHASE_CHECK(out.rows() == targets.num_outputs());
  SYMPHASE_CHECK(out.words_per_row() >= e.words);
  // Every deposit XORs into the block, so it starts from zero.
  out.clear_all();
  Rng rng = Rng(seed).stream(shard);
  ScatterDeposit deposit(targets, out, e.words);
  walk_groups(e.words, rng, deposit);
  // B's tail bits are zero, so are M·B's: drop what landed beyond.
  if (e.shots % kWordBits != 0) {
    const Word mask = tail_mask(e.shots);
    for (std::size_t r = 0; r < out.rows(); ++r) {
      out.row(r)[e.words - 1] &= mask;
    }
  }
}

}  // namespace symphase
