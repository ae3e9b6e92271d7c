#pragma once

/// \file admission.hpp
/// Admission control for the sampling service: decides, before a
/// request touches the scheduler queue, whether the server can afford
/// it — and if not, with which structured error and backoff hint to
/// turn it away.
///
/// The cost unit is *shots*, not requests: one request for 10M shots
/// is 10,000x the work of a 1k-shot request, so counting requests
/// would let a single client saturate the server within any request
/// rate. Three independent gates, checked in order:
///
///  1. Per-client token bucket (shots/second with a burst allowance) —
///     fairness across clients. Rejected: kRateLimited, with
///     retry_after_ms = when the bucket can afford the request.
///  2. Shots-in-flight cap — bounds total queued + executing work.
///     Rejected: kQueueFull (it is an overload condition, not a
///     per-client one).
///  3. Priority-aware queue shedding — low-priority requests are
///     rejected once the queue passes 50% of capacity, normal past 75%,
///     high only when genuinely full.
///     Under pressure the server degrades by priority class instead of
///     failing everyone at once. Rejected: kQueueFull.
///
/// The controller is intentionally not thread-safe: SamplingService
/// owns one instance under its queue mutex, where queue depth and the
/// admission state change atomically together.

#include <cstdint>
#include <list>
#include <unordered_map>

#include "service/errors.hpp"
#include "service/scheduler.hpp"

namespace symphase {

struct AdmissionOptions {
  /// Steady-state per-client budget in shots per second. 0 disables
  /// rate limiting entirely (the default — in-process and single-user
  /// deployments should not pay for fairness they do not need).
  std::uint64_t client_shots_per_second = 0;
  /// Token-bucket capacity: the burst an idle client accumulates.
  /// 0 = one second's worth of refill. A single request costing more
  /// than the capacity is charged the full bucket instead of being
  /// unadmittable forever.
  std::uint64_t client_burst_shots = 0;
  /// Cap on the total shots queued + executing across all clients
  /// (0 = unlimited). A request larger than the cap is only admitted
  /// when nothing else is in flight — it must be runnable somehow.
  std::uint64_t max_shots_in_flight = 0;
};

/// Token bucket denominated in shots. Refill is computed lazily from
/// elapsed SchedulerClock time — no timer thread.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate_per_second, double capacity,
              SchedulerClock::time_point now);

  /// Takes `cost` tokens if available (cost above the capacity is
  /// clamped to it — see AdmissionOptions::client_burst_shots).
  bool try_take(double cost, SchedulerClock::time_point now);

  /// Milliseconds until `cost` tokens will be available (0 = now).
  std::uint64_t retry_after_ms(double cost,
                               SchedulerClock::time_point now) const;

  double tokens(SchedulerClock::time_point now) const;

 private:
  double rate_ = 0.0;
  double capacity_ = 0.0;
  double tokens_ = 0.0;
  SchedulerClock::time_point last_{};
};

/// The verdict for one submission. When `admitted` is false, `error`
/// carries the structured rejection to put in the error frame.
struct AdmissionDecision {
  bool admitted = true;
  ServiceError error;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  /// Admission check for one request. On success the request's shots
  /// are charged against the bucket and the in-flight total — call
  /// release() exactly once when the request leaves the service
  /// (finished, failed, or cancelled out of the queue).
  ///
  /// `enforce_queue_limits` selects whether gate 3 (shed/full) applies;
  /// blocking submitters wait for queue space instead of being shed,
  /// so they pass false. Requires external synchronization (the
  /// service's queue mutex).
  AdmissionDecision admit(std::uint64_t client_id, std::uint64_t shots,
                          RequestPriority priority, std::size_t queue_depth,
                          std::size_t queue_capacity,
                          bool enforce_queue_limits,
                          SchedulerClock::time_point now);

  /// Returns a previously admitted request's shots to the in-flight
  /// budget (bucket tokens are spent for good — that is the rate).
  void release(std::uint64_t shots);

  std::uint64_t shots_in_flight() const { return shots_in_flight_; }

  /// Whether the shots-in-flight gate would pass for `shots` right
  /// now — the predicate blocking submitters wait on.
  bool fits_in_flight(std::uint64_t shots) const;

  /// The queue-depth limit for `priority` under `queue_capacity`.
  std::size_t depth_limit(RequestPriority priority,
                          std::size_t queue_capacity) const;

  const AdmissionOptions& options() const { return options_; }

 private:
  struct ClientEntry {
    TokenBucket bucket;
    std::list<std::uint64_t>::iterator lru_position;
  };

  TokenBucket& bucket_for(std::uint64_t client_id,
                          SchedulerClock::time_point now);

  AdmissionOptions options_;
  std::unordered_map<std::uint64_t, ClientEntry> clients_;
  std::list<std::uint64_t> lru_;  // front = most recently seen client
  std::uint64_t shots_in_flight_ = 0;
};

}  // namespace symphase
