#pragma once

/// \file trace.hpp
/// Low-overhead request-lifecycle tracing.
///
/// Recording is compiled in but off by default: every instrumentation
/// site guards on enabled(), a single relaxed atomic load, so the hot
/// shard-fill loop pays one predictable branch when tracing is off.
/// When enabled, events land in per-thread ring buffers:
///
///  - Each thread owns a fixed-capacity ring (registered on first use,
///    kept alive for the process lifetime). The owning thread is the
///    only writer; recording an event is a handful of relaxed atomic
///    stores bracketed by a per-slot sequence word — no locks, no
///    allocation, no contention with other threads.
///  - When a ring wraps, the oldest undrained events are overwritten
///    and counted in dropped_events(); a drain never observes a torn
///    record (the sequence word rejects slots mid-overwrite).
///  - drain_json() consumes every ring's events recorded since the
///    previous drain and renders them as Chrome trace-event JSON
///    (the `{"traceEvents":[...]}` form), loadable in Perfetto or
///    chrome://tracing. `GET /v1/trace` and `symphase serve
///    --trace-out FILE` are thin wrappers over it.
///
/// Events carry a steady-clock nanosecond timestamp, a small per-thread
/// id (stable for the thread's lifetime), and the request identity the
/// serving stack joins logs and metrics on: request id and service
/// ticket. Span names must be string literals (the ring stores the
/// pointer, not a copy).

#include <cstddef>
#include <cstdint>
#include <string>

namespace symphase::trace {

/// True when recording is on. One relaxed load — safe to call on the
/// hottest path.
bool enabled();

/// Flips recording globally. Events recorded before disabling stay in
/// the rings until drained.
void set_enabled(bool on);

/// Steady-clock nanoseconds (the timestamp base for every event).
std::uint64_t now_ns();

/// Capacity (events) of rings created after this call; existing rings
/// keep their size. Rounded up to a power of two, minimum 8. Intended
/// for tests and tools; the default is 4096 events per thread.
void set_ring_capacity(std::size_t events);

/// Records a completed span [start_ns, end_ns] on the calling thread's
/// ring. No-op when tracing is disabled. `id`/`ticket` are the request
/// identity (0 = not applicable); `aux` is a site-specific index (shard,
/// chunk, ...) surfaced in the event's args.
void span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
          std::uint64_t id = 0, std::uint64_t ticket = 0,
          std::uint64_t aux = 0);

/// Records a point-in-time event (Chrome "i" phase). No-op when
/// tracing is disabled.
void instant(const char* name, std::uint64_t id = 0, std::uint64_t ticket = 0,
             std::uint64_t aux = 0);

/// RAII span: stamps the start time at construction (only when tracing
/// is enabled at that moment) and records on destruction.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t id = 0,
                std::uint64_t ticket = 0, std::uint64_t aux = 0)
      : name_(enabled() ? name : nullptr),
        id_(id),
        ticket_(ticket),
        aux_(aux),
        start_ns_(name_ ? now_ns() : 0) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (name_ != nullptr) {
      span(name_, start_ns_, now_ns(), id_, ticket_, aux_);
    }
  }

 private:
  const char* name_;
  std::uint64_t id_, ticket_, aux_;
  std::uint64_t start_ns_;
};

/// Total events ever recorded across all rings (drained or not).
std::uint64_t recorded_events();

/// Total events lost to ring wraparound before a drain could read them.
/// Monotonic; exported as `symphase_trace_dropped_events_total`.
std::uint64_t dropped_events();

/// Drains every ring's events recorded since the previous drain and
/// renders them as a Chrome trace-event JSON object:
///
///   {"displayTimeUnit":"ms",
///    "otherData":{"dropped_events":N,"clock":"steady_ns"},
///    "traceEvents":[{"name":...,"ph":"X","ts":...,"dur":...,
///                    "pid":1,"tid":...,"args":{...}}, ...]}
///
/// `ts`/`dur` are microseconds (fractional, nanosecond precision) as
/// the Chrome format specifies. Events are sorted by start time.
/// Draining consumes: a second call returns only newer events.
/// Thread-safe; concurrent drains serialize.
std::string drain_json();

/// Testing hook: marks every ring's current contents as drained (without
/// rendering) so a test observes only its own events.
void discard_all_for_testing();

}  // namespace symphase::trace
