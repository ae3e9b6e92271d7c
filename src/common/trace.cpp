#include "common/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace symphase::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::size_t> g_ring_capacity{4096};

/// One ring slot. All fields are relaxed atomics so a concurrent drain
/// copying a slot mid-overwrite is a data-race-free *stale read*, and
/// the seq word tells the reader to discard the copy — the classic
/// seqlock, expressed in atomics so TSan can verify it.
struct Slot {
  std::atomic<std::uint64_t> seq{0};  // 2*h+2 once write #h is stable
  std::atomic<std::uint64_t> name{0};  // const char* literal
  std::atomic<std::uint64_t> start_ns{0};
  std::atomic<std::uint64_t> dur_ns{0};
  std::atomic<std::uint64_t> id{0};
  std::atomic<std::uint64_t> ticket{0};
  std::atomic<std::uint64_t> aux{0};
  std::atomic<std::uint8_t> kind{0};  // 0 span, 1 instant
};

struct Ring {
  explicit Ring(std::size_t capacity, std::uint32_t tid_in)
      : slots(capacity), mask(capacity - 1), tid(tid_in) {}

  std::vector<Slot> slots;
  std::size_t mask;
  std::uint32_t tid;
  /// Total events ever written to this ring (not an index).
  std::atomic<std::uint64_t> head{0};
  /// head value at the last drain; events below it are consumed.
  std::atomic<std::uint64_t> drain_pos{0};
  /// Events overwritten before any drain read them.
  std::atomic<std::uint64_t> dropped{0};
};

struct Registry {
  std::mutex mutex;  // guards rings growth and serializes drains
  std::vector<std::unique_ptr<Ring>> rings;
};

/// Leaked on purpose: worker threads may still be recording during
/// static destruction, and the rings are bounded (one per thread ever
/// seen).
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

Ring& local_ring() {
  thread_local Ring* ring = nullptr;
  if (ring == nullptr) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    std::size_t capacity = g_ring_capacity.load(std::memory_order_relaxed);
    std::size_t rounded = 8;
    while (rounded < capacity) {
      rounded <<= 1;
    }
    reg.rings.push_back(std::make_unique<Ring>(
        rounded, static_cast<std::uint32_t>(reg.rings.size() + 1)));
    ring = reg.rings.back().get();
  }
  return *ring;
}

void record(std::uint8_t kind, const char* name, std::uint64_t start_ns,
            std::uint64_t dur_ns, std::uint64_t id, std::uint64_t ticket,
            std::uint64_t aux) {
  Ring& ring = local_ring();
  const std::uint64_t h = ring.head.load(std::memory_order_relaxed);
  const std::size_t capacity = ring.mask + 1;
  if (h >= capacity &&
      h - capacity >= ring.drain_pos.load(std::memory_order_relaxed)) {
    // Overwriting an event no drain has read yet.
    ring.dropped.fetch_add(1, std::memory_order_relaxed);
  }
  Slot& slot = ring.slots[h & ring.mask];
  slot.seq.store(2 * h + 1, std::memory_order_relaxed);  // mark unstable
  slot.name.store(reinterpret_cast<std::uintptr_t>(name),
                  std::memory_order_relaxed);
  slot.start_ns.store(start_ns, std::memory_order_relaxed);
  slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
  slot.id.store(id, std::memory_order_relaxed);
  slot.ticket.store(ticket, std::memory_order_relaxed);
  slot.aux.store(aux, std::memory_order_relaxed);
  slot.kind.store(kind, std::memory_order_relaxed);
  slot.seq.store(2 * h + 2, std::memory_order_release);  // stable
  ring.head.store(h + 1, std::memory_order_release);
}

struct Event {
  const char* name;
  std::uint64_t start_ns, dur_ns, id, ticket, aux;
  std::uint32_t tid;
  std::uint8_t kind;
};

/// Copies the undrained, unlapped events out of `ring`. Slots the
/// writer laps mid-read fail the seq check and are skipped (the writer
/// already counted them dropped, or will when it laps past drain_pos).
void collect(Ring& ring, std::vector<Event>& out) {
  const std::uint64_t head = ring.head.load(std::memory_order_acquire);
  const std::size_t capacity = ring.mask + 1;
  std::uint64_t lo = ring.drain_pos.load(std::memory_order_relaxed);
  if (head > capacity && lo < head - capacity) {
    lo = head - capacity;
  }
  for (std::uint64_t p = lo; p < head; ++p) {
    Slot& slot = ring.slots[p & ring.mask];
    const std::uint64_t seq1 = slot.seq.load(std::memory_order_acquire);
    if (seq1 != 2 * p + 2) {
      continue;  // overwritten (or being overwritten) by a newer event
    }
    Event event;
    event.name = reinterpret_cast<const char*>(
        static_cast<std::uintptr_t>(slot.name.load(std::memory_order_relaxed)));
    event.start_ns = slot.start_ns.load(std::memory_order_relaxed);
    event.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
    event.id = slot.id.load(std::memory_order_relaxed);
    event.ticket = slot.ticket.load(std::memory_order_relaxed);
    event.aux = slot.aux.load(std::memory_order_relaxed);
    event.kind = slot.kind.load(std::memory_order_relaxed);
    event.tid = ring.tid;
    const std::uint64_t seq2 = slot.seq.load(std::memory_order_acquire);
    if (seq2 != seq1 || event.name == nullptr) {
      continue;  // torn: the writer lapped us mid-copy
    }
    out.push_back(event);
  }
  ring.drain_pos.store(head, std::memory_order_relaxed);
}

void append_us(std::string& out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out += buf;
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, value);
  out += buf;
}

void append_event(std::string& out, const Event& event) {
  out += "{\"name\":\"";
  out += event.name;  // span names are literals: no escaping needed
  out += "\",\"cat\":\"symphase\",\"ph\":\"";
  out += event.kind == 0 ? "X" : "i";
  out += "\",\"ts\":";
  append_us(out, event.start_ns);
  if (event.kind == 0) {
    out += ",\"dur\":";
    append_us(out, event.dur_ns);
  } else {
    out += ",\"s\":\"t\"";
  }
  out += ",\"pid\":1,\"tid\":";
  append_u64(out, event.tid);
  out += ",\"args\":{\"id\":";
  append_u64(out, event.id);
  out += ",\"ticket\":";
  append_u64(out, event.ticket);
  out += ",\"aux\":";
  append_u64(out, event.aux);
  out += "}}";
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_ring_capacity(std::size_t events) {
  g_ring_capacity.store(events < 8 ? 8 : events, std::memory_order_relaxed);
}

void span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
          std::uint64_t id, std::uint64_t ticket, std::uint64_t aux) {
  if (!enabled()) {
    return;
  }
  record(0, name, start_ns, end_ns > start_ns ? end_ns - start_ns : 0, id,
         ticket, aux);
}

void instant(const char* name, std::uint64_t id, std::uint64_t ticket,
             std::uint64_t aux) {
  if (!enabled()) {
    return;
  }
  record(1, name, now_ns(), 0, id, ticket, aux);
}

std::uint64_t recorded_events() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::uint64_t total = 0;
  for (const auto& ring : reg.rings) {
    total += ring->head.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t dropped_events() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::uint64_t total = 0;
  for (const auto& ring : reg.rings) {
    total += ring->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::string drain_json() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<Event> events;
  std::uint64_t dropped = 0;
  for (const auto& ring : reg.rings) {
    collect(*ring, events);
    dropped += ring->dropped.load(std::memory_order_relaxed);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.start_ns < b.start_ns;
                   });
  std::string out;
  out.reserve(128 + events.size() * 160);
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":";
  append_u64(out, dropped);
  out += ",\"clock\":\"steady_ns\"},\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    append_event(out, events[i]);
  }
  out += "]}";
  return out;
}

void discard_all_for_testing() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& ring : reg.rings) {
    ring->drain_pos.store(ring->head.load(std::memory_order_acquire),
                          std::memory_order_relaxed);
  }
}

}  // namespace symphase::trace
