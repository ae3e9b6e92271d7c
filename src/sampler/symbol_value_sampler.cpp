#include "sampler/symbol_value_sampler.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/parallel.hpp"
#include "common/simd_word.hpp"

namespace symphase {

namespace {

// A sparse pattern group's events are drawn with one PauliPatternDrawer,
// as fill_pauli_patterns does per noise block.
static_assert(kSampleShardWords <= kNoiseBlockWords);

constexpr unsigned kMaxMembers = 4;

// Cost model behind the scatter's path choice (docs/performance.md,
// "Which path a group takes"), per word of shots. An event group flips
// 64 · q · W output bits, where W is its Mᵀ weight (readers, summed over
// its used members) and q the chance that an event flips a given member
// (the group's flip_probability()); a flip costs about kFlipWords word
// XORs. A filled row costs W word stores or XORs plus a fixed overhead:
// about one word for a one-member group, more for a group that also
// fills an event row and scans it for patterns. Fitted on d9 surface
// codes with scratch rows XORed into a cleared block and a branch on
// every pattern bit; write-once deposits only make filled rows cheaper,
// and after the masked deposit below kFlipWords was re-checked at 3, 4,
// 10 and 16, none better than 6.
constexpr double kFlipWords = 6;
constexpr double kSiteOverheadWords = 1;
constexpr double kPatternOverheadWords = 20;

// An event group's member read by at most this many output rows flips
// them whatever its pattern bit, masked by it: a branch on a fresh coin
// mispredicts half the time, which costs more than a few wasted XORs.
// A heavier member branches, so a zero bit skips its readers.
constexpr std::size_t kLightReaders = 4;

/// Whether the scatter hands a fault group's events to the output rows
/// one bit at a time (an event group) rather than through a scratch row;
/// `weight` is the group's W.
bool scatters_events(const SymbolGroup& group, const BiasedBitPlan& plan,
                     std::size_t weight) {
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
  return excess <= 0 || static_cast<double>(weight) * excess < overhead;
}

/// generate_shard_block's deposit: every group is generated straight
/// into its rows of B.
struct BRowDeposit {
  static constexpr bool kScatters = false;

  Word* row(unsigned /*member*/, std::uint32_t b_row, bool /*pattern*/) {
    return b.row(b_row);
  }
  void commit(std::uint32_t /*b_row*/, const Word* /*bits*/) {}

  BitMatrix& b;
};

/// scatter_shard_block's deposit: a bit of B row r lands in every output
/// row that reads r, i.e. in the rows Mᵀ lists for r. Event groups flip
/// single output bits. Every other group is generated, member by member,
/// into the first output row that the member reaches first (a scratch
/// row if it reaches none), then commit() copies that row into the
/// member's other first readers and XORs it into the rest.
class ScatterDeposit {
 public:
  static constexpr bool kScatters = true;

  ScatterDeposit(const ScatterTargets& targets, BitMatrix& out,
                 std::size_t words)
      : targets_(targets), out_(out), words_(words) {}

  Word* row(unsigned member, std::uint32_t b_row, bool pattern) {
    const std::span<const std::uint32_t> first =
        targets_.first_readers(b_row);
    Word* row = first.empty() ? scratch_[member] : out_.row(first.front());
    // Pattern fills XOR their bits in; every other fill overwrites.
    if (pattern) {
      wide::clear_words(row, words_);
    }
    return row;
  }

  void commit(std::uint32_t b_row, const Word* bits) {
    const std::span<const std::uint32_t> first =
        targets_.first_readers(b_row);
    for (std::size_t i = 1; i < first.size(); ++i) {
      wide::copy_words(out_.row(first[i]), bits, words_);
    }
    for (const std::uint32_t t : targets_.later_readers(b_row)) {
      wide::xor_words(out_.row(t), bits, words_);
    }
  }

  /// XORs `mask` into word `w` of every output row that reads `b_row`.
  void flip(std::uint32_t b_row, std::size_t w, Word mask) {
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

SymbolValueSampler::SymbolValueSampler(
    const SymbolTable& table, const std::vector<std::uint32_t>& used_symbols)
    : table_(table), num_rows_(used_symbols.size()) {
  SYMPHASE_CHECK(std::is_sorted(used_symbols.begin(), used_symbols.end()));
  SYMPHASE_CHECK(std::adjacent_find(used_symbols.begin(),
                                    used_symbols.end()) ==
                 used_symbols.end());
  if (used_symbols.empty()) {
    return;
  }
  SYMPHASE_CHECK(used_symbols.back() < table_.num_symbols());
  row_lookup_.assign(used_symbols.back() + 1, 0);
  std::size_t num_groups = 0;
  std::uint32_t last_group = UINT32_MAX;
  for (const std::uint32_t s : used_symbols) {
    const std::uint32_t gi = table_.group_index_of(s);
    num_groups += gi != last_group ? 1 : 0;
    last_group = gi;
  }
  groups_.reserve(num_groups);
  plans_.emplace_back();
  std::unordered_map<double, std::uint32_t> plan_of;
  for (std::size_t r = 0; r < used_symbols.size(); ++r) {
    const std::uint32_t s = used_symbols[r];
    row_lookup_[s] = static_cast<std::uint32_t>(r) + 1;
    const std::uint32_t gi = table_.group_index_of(s);
    const SymbolGroup& group = table_.groups()[gi];
    if (groups_.empty() || groups_.back().group != gi) {
      SYMPHASE_ASSERT(group.num_symbols <= kMaxMembers);
      GroupRecord& g = groups_.emplace_back();
      g.group = gi;
      if (group.kind == SymbolGroupKind::kFault) {
        const auto [it, added] = plan_of.try_emplace(
            group.probability, static_cast<std::uint32_t>(plans_.size()));
        if (added) {
          plans_.emplace_back(group.probability);
        }
        g.plan = it->second;
      }
      g.kind = group.kind;
      g.members = static_cast<std::uint8_t>(group.num_symbols);
    }
    groups_.back().b_rows[s - group.first_symbol] =
        static_cast<std::uint32_t>(r);
  }
}

void SymbolValueSampler::plan_scatter(const ScatterTargets& targets) {
  SYMPHASE_CHECK(targets.num_b_rows() == num_rows());
  std::vector<std::uint8_t> stored(targets.num_outputs(), 0);
  for (GroupRecord& g : groups_) {
    std::size_t weight = 0;
    g.light = 0;
    for (unsigned k = 0; k < g.members; ++k) {
      if (g.b_rows[k] != kNoRow) {
        const std::size_t readers = targets.readers(g.b_rows[k]).size();
        weight += readers;
        if (readers <= kLightReaders) {
          g.light |= static_cast<std::uint8_t>(1u << k);
        }
      }
    }
    g.events =
        scatters_events(table_.groups()[g.group], plans_[g.plan], weight);
    if (g.events) {
      continue;
    }
    for (const std::uint32_t b_row : g.b_rows) {
      if (b_row != kNoRow) {
        for (const std::uint32_t t : targets.first_readers(b_row)) {
          stored[t] = 1;
        }
      }
    }
  }
  unstored_rows_.clear();
  for (std::size_t k = 0; k < stored.size(); ++k) {
    if (stored[k] == 0) {
      unstored_rows_.push_back(static_cast<std::uint32_t>(k));
    }
  }
  planned_outputs_ = targets.num_outputs();
}

template <typename Deposit>
void SymbolValueSampler::walk_groups(std::size_t words, Rng& rng,
                                     Deposit& deposit) const {
  SYMPHASE_ASSERT(words <= kShardWords);
  // Event-bit scratch shared by the pattern groups of this shard.
  alignas(64) Word events[kShardWords];
  // Event positions of a sparse pattern group (scatter only).
  std::vector<std::uint32_t> positions;
  for (const GroupRecord& g : groups_) {
    const unsigned members = g.members;
    const BiasedBitPlan& plan = plans_[g.plan];

    if constexpr (Deposit::kScatters) {
      // Event groups: the draws are the fills' own visitors, so the
      // generator advances identically.
      if (g.events) {
        if (members == 1) {
          plan.for_each_event(rng, words, [&](std::size_t bit) {
            deposit.flip(g.b_rows[0], word_index(bit), bit_mask(bit));
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
          const std::size_t w = word_index(bit);
          for (unsigned k = 0; k < members; ++k) {
            const Word drawn = 0 - ((pattern >> k) & 1);
            if (((g.light >> k) & 1) != 0) {
              deposit.flip(g.b_rows[k], w, bit_mask(bit) & drawn);
            } else if (drawn != 0 && g.b_rows[k] != kNoRow) {
              deposit.flip(g.b_rows[k], w, bit_mask(bit));
            }
          }
        }
        continue;
      }
    }

    const bool pattern = g.kind == SymbolGroupKind::kFault && members > 1;
    Word* rows[kMaxMembers] = {nullptr, nullptr, nullptr, nullptr};
    for (unsigned k = 0; k < members; ++k) {
      if (g.b_rows[k] != kNoRow) {
        rows[k] = deposit.row(k, g.b_rows[k], pattern);
      }
    }
    switch (g.kind) {
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
        if (!pattern) {
          SYMPHASE_ASSERT(rows[0] != nullptr);
          plan.fill(rng, rows[0], words);
          break;
        }
        plan.fill(rng, events, words);
        fill_pauli_patterns(rng, events, words, members, rows,
                            plan.probability());
        break;
    }
    // Members in ascending order: a member's row is read here before any
    // higher member of the group XORs into it.
    for (unsigned k = 0; k < members; ++k) {
      if (rows[k] != nullptr) {
        deposit.commit(g.b_rows[k], rows[k]);
      }
    }
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
  SYMPHASE_CHECK(targets.num_outputs() == planned_outputs_);
  SYMPHASE_CHECK(out.rows() == targets.num_outputs());
  SYMPHASE_CHECK(out.words_per_row() >= e.words);
  // The first deposit into a row stores, every later one XORs. Stores
  // cover a row's `e.words` words: a full shard zeroes only the rows no
  // store reaches, a shorter one the whole block.
  if (e.words < out.words_per_row()) {
    out.clear_all();
  } else {
    for (const std::uint32_t r : unstored_rows_) {
      wide::clear_words(out.row(r), e.words);
    }
  }
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
