#pragma once

/// \file scheduler.hpp
/// The deadline/priority-aware request queue of the sampling service.
///
/// A FIFO queue would let a batch of bulk jobs starve an urgent one
/// under saturation, and a request whose client stopped caring would
/// still cost a full compile+sample. This queue is an ordered map keyed
/// by
///
///   (priority class, absolute deadline, arrival ticket)
///
/// so the pool always runs the most urgent class first, earliest
/// deadline first within a class, and FIFO among equals (no-deadline
/// requests sort after every deadline-carrying one in their class).
/// The ticket makes every key unique, so the order is total. A second
/// map (ticket -> key) makes cancellation of a *queued* request
/// O(log n) instead of a scan — the service's cancel() uses it, and
/// each FrameSession maps its client's request ids onto tickets.
///
/// Deadlines are scheduling hints AND admission gates: the queue itself
/// never drops anything, but the service checks `deadline` when a
/// worker takes the item and rejects expired requests with an error
/// frame before any compilation or sampling starts. In-flight requests
/// past their deadline are cut too, by the service's watchdog thread
/// riding the cooperative-cancel path (api/sample_stream.hpp) — the
/// queue plays no part in that; see service.hpp.
///
/// Not thread-safe: the owner (SamplingService) holds its queue mutex
/// around every call.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "common/enum_names.hpp"

namespace symphase {

/// Request priority classes, most urgent first. Three classes keep the
/// wire text human-readable and the per-class stats bounded; the queue
/// order would take any integer key if finer grading is ever needed.
enum class RequestPriority : std::uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };

inline constexpr std::size_t kNumPriorities = 3;

inline constexpr EnumNames<RequestPriority, kNumPriorities> kPriorityNames{
    "priority", {"high", "normal", "low"}};

constexpr std::string_view priority_name(RequestPriority priority) {
  return kPriorityNames.name(priority);
}

/// Parses "high" | "normal" | "low"; throws std::invalid_argument.
inline RequestPriority priority_from_name(std::string_view name) {
  return kPriorityNames.from_name(name);
}

/// The service's scheduling clock. steady_clock: deadlines are relative
/// budgets ("finish within 50ms"), never wall-clock timestamps, so they
/// survive clock adjustments.
using SchedulerClock = std::chrono::steady_clock;

/// Sentinel for "no deadline": sorts after every real deadline.
inline constexpr SchedulerClock::time_point kNoDeadline =
    SchedulerClock::time_point::max();

/// Pending jobs in scheduling order. Payload is the owner's job type;
/// the queue only looks at the scheduling key.
template <typename Payload>
class DeadlineQueue {
 public:
  struct Item {
    std::uint64_t ticket = 0;  ///< Unique, monotonically assigned by owner.
    RequestPriority priority = RequestPriority::kNormal;
    SchedulerClock::time_point deadline = kNoDeadline;
    Payload payload{};
  };

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }

  void push(Item item) {
    SYMPHASE_CHECK_MSG(!keys_.contains(item.ticket),
                       "duplicate scheduler ticket " << item.ticket);
    const Key key{item.priority, item.deadline, item.ticket};
    keys_.emplace(item.ticket, key);
    items_.emplace(key, std::move(item));
  }

  /// Removes and returns the most urgent item. Queue must be non-empty.
  Item pop() {
    SYMPHASE_CHECK(!items_.empty());
    return extract(items_.begin());
  }

  /// Removes the item with `ticket` if it is still queued, moving it
  /// into `out` (when non-null). Returns false when unknown — already
  /// popped, or never pushed.
  bool remove(std::uint64_t ticket, Item* out = nullptr) {
    const auto key = keys_.find(ticket);
    if (key == keys_.end()) {
      return false;
    }
    Item item = extract(items_.find(key->second));
    if (out != nullptr) {
      *out = std::move(item);
    }
    return true;
  }

  /// The most urgent item without removing it. Queue must be non-empty.
  const Item& peek() const {
    SYMPHASE_CHECK(!items_.empty());
    return items_.begin()->second;
  }

 private:
  using Key =
      std::tuple<RequestPriority, SchedulerClock::time_point, std::uint64_t>;

  Item extract(typename std::map<Key, Item>::iterator it) {
    Item item = std::move(it->second);
    keys_.erase(item.ticket);
    items_.erase(it);
    return item;
  }

  std::map<Key, Item> items_;
  std::unordered_map<std::uint64_t, Key> keys_;
};

}  // namespace symphase
