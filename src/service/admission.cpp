#include "service/admission.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace symphase {

namespace {

/// Distinct client buckets tracked; least-recently-seen clients are
/// evicted beyond this (an evicted client restarts with a full bucket —
/// cheap, and hostile client-id churn cannot grow memory).
constexpr std::size_t kMaxTrackedClients = 1024;

/// Queue-depth fractions above which low/normal-priority submissions are
/// shed. High priority only fails on a genuinely full queue.
constexpr double kShedLowAbove = 0.50;
constexpr double kShedNormalAbove = 0.75;

/// Backoff hint for queue-pressure rejections: grows with how deep the
/// queue is relative to capacity, so clients spread their retries
/// instead of hammering a saturated server in lockstep.
std::uint64_t queue_retry_hint(std::size_t queue_depth,
                               std::size_t queue_capacity) {
  const std::size_t capacity = std::max<std::size_t>(queue_capacity, 1);
  return 10 + (static_cast<std::uint64_t>(queue_depth) * 100) / capacity;
}

/// Backoff hint for shot-capacity rejections. Queue depth is the wrong
/// signal here: one 2M-shot job saturates the cap with an empty queue,
/// and the depth-based hint would tell clients to retry in 10 ms —
/// hammering a server that will stay saturated for seconds. Scale by
/// how oversubscribed the shot budget is instead (100 ms per fully
/// consumed cap, plus the pending request's own share).
std::uint64_t shots_retry_hint(std::uint64_t shots_in_flight,
                               std::uint64_t requested_shots,
                               std::uint64_t max_shots_in_flight) {
  const std::uint64_t cap = std::max<std::uint64_t>(max_shots_in_flight, 1);
  return 10 + ((shots_in_flight + requested_shots) * 100) / cap;
}

}  // namespace

TokenBucket::TokenBucket(double rate_per_second, double capacity,
                         SchedulerClock::time_point now)
    : rate_(rate_per_second),
      capacity_(capacity),
      tokens_(capacity),  // a new client starts with a full burst
      last_(now) {}

double TokenBucket::tokens(SchedulerClock::time_point now) const {
  const double elapsed =
      std::chrono::duration<double>(now - last_).count();
  return std::min(capacity_, tokens_ + std::max(0.0, elapsed) * rate_);
}

bool TokenBucket::try_take(double cost, SchedulerClock::time_point now) {
  const double clamped = std::min(cost, capacity_);
  const double available = tokens(now);
  if (available < clamped) {
    return false;
  }
  tokens_ = available - clamped;
  last_ = now;
  return true;
}

std::uint64_t TokenBucket::retry_after_ms(
    double cost, SchedulerClock::time_point now) const {
  const double clamped = std::min(cost, capacity_);
  const double deficit = clamped - tokens(now);
  if (deficit <= 0.0) {
    return 0;
  }
  if (rate_ <= 0.0) {
    return 0;  // never refills; there is no honest hint
  }
  return static_cast<std::uint64_t>(std::ceil(deficit / rate_ * 1000.0));
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {
  if (options_.client_burst_shots == 0) {
    options_.client_burst_shots = options_.client_shots_per_second;
  }
}

TokenBucket& AdmissionController::bucket_for(std::uint64_t client_id,
                                             SchedulerClock::time_point now) {
  const auto hit = clients_.find(client_id);
  if (hit != clients_.end()) {
    lru_.splice(lru_.begin(), lru_, hit->second.lru_position);
    return hit->second.bucket;
  }
  lru_.push_front(client_id);
  auto& entry = clients_[client_id];
  entry.bucket = TokenBucket(
      static_cast<double>(options_.client_shots_per_second),
      static_cast<double>(options_.client_burst_shots), now);
  entry.lru_position = lru_.begin();
  while (clients_.size() > kMaxTrackedClients) {
    clients_.erase(lru_.back());
    lru_.pop_back();
  }
  return entry.bucket;
}

std::size_t AdmissionController::depth_limit(
    RequestPriority priority, std::size_t queue_capacity) const {
  double fraction = 1.0;
  switch (priority) {
    case RequestPriority::kHigh:
      fraction = 1.0;
      break;
    case RequestPriority::kNormal:
      fraction = kShedNormalAbove;
      break;
    case RequestPriority::kLow:
      fraction = kShedLowAbove;
      break;
  }
  const auto limit = static_cast<std::size_t>(
      std::floor(static_cast<double>(queue_capacity) * fraction));
  // Every class can always use at least one slot of an empty queue.
  return std::max<std::size_t>(limit, 1);
}

bool AdmissionController::fits_in_flight(std::uint64_t shots) const {
  if (options_.max_shots_in_flight == 0) {
    return true;
  }
  if (shots_in_flight_ + shots <= options_.max_shots_in_flight) {
    return true;
  }
  // An oversized request (alone bigger than the cap) must still be
  // runnable: admit it only against an otherwise idle server.
  return shots > options_.max_shots_in_flight && shots_in_flight_ == 0;
}

AdmissionDecision AdmissionController::admit(
    std::uint64_t client_id, std::uint64_t shots, RequestPriority priority,
    std::size_t queue_depth, std::size_t queue_capacity,
    bool enforce_queue_limits, SchedulerClock::time_point now) {
  AdmissionDecision decision;
  // The bucket is only charged once every gate passed — a rejected
  // request must not also burn the client's budget.
  TokenBucket* bucket = nullptr;
  const auto cost = static_cast<double>(shots);
  if (options_.client_shots_per_second != 0) {
    bucket = &bucket_for(client_id, now);
    if (bucket->retry_after_ms(cost, now) != 0) {
      std::ostringstream oss;
      oss << "client shot budget exhausted ("
          << options_.client_shots_per_second << " shots/s, burst "
          << options_.client_burst_shots << "); retry later";
      decision.admitted = false;
      decision.error = make_error(ErrorCode::kRateLimited, oss.str(),
                                  bucket->retry_after_ms(cost, now));
      return decision;
    }
  }
  if (!fits_in_flight(shots)) {
    std::ostringstream oss;
    oss << "server shot capacity saturated (" << shots_in_flight_ << " of "
        << options_.max_shots_in_flight << " shots in flight); retry later";
    decision.admitted = false;
    decision.error =
        make_error(ErrorCode::kQueueFull, oss.str(),
                   shots_retry_hint(shots_in_flight_, shots,
                                    options_.max_shots_in_flight));
    return decision;
  }
  if (enforce_queue_limits) {
    const std::size_t limit = depth_limit(priority, queue_capacity);
    if (queue_depth >= limit) {
      std::ostringstream oss;
      if (limit < queue_capacity) {
        oss << "server request queue is full for " << priority_name(priority)
            << "-priority requests; retry later";
      } else {
        oss << "server request queue is full; retry later";
      }
      decision.admitted = false;
      decision.error =
          make_error(ErrorCode::kQueueFull, oss.str(),
                     queue_retry_hint(queue_depth, queue_capacity));
      return decision;
    }
  }
  if (bucket != nullptr) {
    (void)bucket->try_take(cost, now);
  }
  shots_in_flight_ += shots;
  return decision;
}

void AdmissionController::release(std::uint64_t shots) {
  shots_in_flight_ -= std::min(shots_in_flight_, shots);
}

}  // namespace symphase
