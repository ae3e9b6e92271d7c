#pragma once

/// \file scheduler.hpp
/// The deadline/priority-aware request queue of the sampling service.
///
/// PR 3's service queued requests FIFO; under saturation that lets a
/// batch of bulk jobs starve an urgent one, and a request whose client
/// stopped caring still costs a full compile+sample. This queue replaces
/// the deque with an indexed min-heap ordered by
///
///   (priority class, absolute deadline, arrival ticket)
///
/// so the pool always runs the most urgent class first, earliest
/// deadline first within a class, and FIFO among equals (no-deadline
/// requests sort after every deadline-carrying one in their class).
/// The index (ticket -> heap slot) makes cancellation of a *queued*
/// request O(log n) instead of a scan — the service's cancel() uses it,
/// and the serve loops map client request ids onto tickets.
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
/// around every call, exactly like the deque it replaces.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace symphase {

/// Request priority classes, most urgent first. Three classes keep the
/// wire text human-readable and the per-class stats bounded; the heap
/// order would take any integer key if finer grading is ever needed.
enum class RequestPriority : std::uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };

inline constexpr std::size_t kNumPriorities = 3;

std::string_view priority_name(RequestPriority priority);

/// Parses "high" | "normal" | "low"; throws std::invalid_argument.
RequestPriority priority_from_name(std::string_view name);

/// The service's scheduling clock. steady_clock: deadlines are relative
/// budgets ("finish within 50ms"), never wall-clock timestamps, so they
/// survive clock adjustments.
using SchedulerClock = std::chrono::steady_clock;

/// Sentinel for "no deadline": sorts after every real deadline.
inline constexpr SchedulerClock::time_point kNoDeadline =
    SchedulerClock::time_point::max();

/// Indexed binary min-heap of pending jobs. Payload is the owner's job
/// type; the queue only looks at the scheduling key.
template <typename Payload>
class DeadlineQueue {
 public:
  struct Item {
    std::uint64_t ticket = 0;  ///< Unique, monotonically assigned by owner.
    RequestPriority priority = RequestPriority::kNormal;
    SchedulerClock::time_point deadline = kNoDeadline;
    Payload payload{};
  };

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  void push(Item item) {
    SYMPHASE_CHECK_MSG(!position_.contains(item.ticket),
                       "duplicate scheduler ticket " << item.ticket);
    heap_.push_back(std::move(item));
    position_[heap_.back().ticket] = heap_.size() - 1;
    sift_up(heap_.size() - 1);
  }

  /// Removes and returns the most urgent item. Queue must be non-empty.
  Item pop() {
    SYMPHASE_CHECK(!heap_.empty());
    return extract(0);
  }

  /// Removes the item with `ticket` if it is still queued, moving it
  /// into `out` (when non-null). Returns false when unknown — already
  /// popped, or never pushed.
  bool remove(std::uint64_t ticket, Item* out = nullptr) {
    const auto it = position_.find(ticket);
    if (it == position_.end()) {
      return false;
    }
    Item item = extract(it->second);
    if (out != nullptr) {
      *out = std::move(item);
    }
    return true;
  }

  /// The most urgent item without removing it. Queue must be non-empty.
  const Item& peek() const {
    SYMPHASE_CHECK(!heap_.empty());
    return heap_.front();
  }

 private:
  static bool before(const Item& a, const Item& b) {
    if (a.priority != b.priority) {
      return a.priority < b.priority;
    }
    if (a.deadline != b.deadline) {
      return a.deadline < b.deadline;
    }
    return a.ticket < b.ticket;
  }

  Item extract(std::size_t index) {
    Item item = std::move(heap_[index]);
    position_.erase(item.ticket);
    const std::size_t last = heap_.size() - 1;
    if (index != last) {
      heap_[index] = std::move(heap_[last]);
      position_[heap_[index].ticket] = index;
    }
    heap_.pop_back();
    if (index < heap_.size()) {
      // The moved-in tail can be too urgent or too lazy for this slot.
      sift_down(index);
      sift_up(index);
    }
    return item;
  }

  void sift_up(std::size_t index) {
    while (index > 0) {
      const std::size_t parent = (index - 1) / 2;
      if (!before(heap_[index], heap_[parent])) {
        return;
      }
      swap_slots(index, parent);
      index = parent;
    }
  }

  void sift_down(std::size_t index) {
    for (;;) {
      std::size_t smallest = index;
      const std::size_t left = 2 * index + 1;
      const std::size_t right = 2 * index + 2;
      if (left < heap_.size() && before(heap_[left], heap_[smallest])) {
        smallest = left;
      }
      if (right < heap_.size() && before(heap_[right], heap_[smallest])) {
        smallest = right;
      }
      if (smallest == index) {
        return;
      }
      swap_slots(index, smallest);
      index = smallest;
    }
  }

  void swap_slots(std::size_t a, std::size_t b) {
    std::swap(heap_[a], heap_[b]);
    position_[heap_[a].ticket] = a;
    position_[heap_[b].ticket] = b;
  }

  std::vector<Item> heap_;
  std::unordered_map<std::uint64_t, std::size_t> position_;
};

}  // namespace symphase
