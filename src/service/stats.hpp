#pragma once

/// \file stats.hpp
/// The service's counters and gauges, declared once.
///
/// SYMPHASE_SERVICE_STATS has one row per value ServiceStats reports,
/// in stats-line order. The rows declare the ServiceStats fields, the
/// ServiceStat slots SamplingService counts in, and kServiceStatRows,
/// the table the stats line, the stats JSON and the gateway's
/// Prometheus collector render. Adding a counter takes a row here plus
/// its increment site (SamplingService::bump).
///
/// X(field, family, label_name, label_value, type, help): the field is
/// also the stats line and JSON key; `family` is the Prometheus family,
/// whose rows a `reason` or `priority` label tells apart ("" for a
/// one-sample family); `type` and `help` are the family's TYPE word and
/// HELP text. The JSON nests the `priority` rows as
/// "served":{"high":n,...}.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>

namespace symphase {

inline constexpr std::string_view kRejectedRequestsHelp =
    "Requests turned away before execution, by reason";
inline constexpr std::string_view kServedRequestsHelp =
    "Successfully completed requests by priority class";

#define SYMPHASE_SERVICE_STATS(X)                                            \
  X(hits, "symphase_cache_hits_total", "", "", "counter",                    \
    "Requests served by a cached compiled session")                          \
  X(misses, "symphase_cache_misses_total", "", "", "counter",                \
    "Requests that had to create a session")                                 \
  X(evictions, "symphase_cache_evictions_total", "", "", "counter",          \
    "Sessions dropped by LRU pressure")                                      \
  X(compiles, "symphase_compiles_total", "", "", "counter",                  \
    "Symbolic compilations")                                                 \
  X(frame_builds, "symphase_frame_builds_total", "", "", "counter",          \
    "Frame-simulator builds")                                                \
  X(completed, "symphase_requests_completed_total", "", "", "counter",       \
    "Requests finished successfully")                                        \
  X(failed, "symphase_requests_failed_total", "", "", "counter",             \
    "Requests that ended in an error frame")                                 \
  X(queue_depth, "symphase_queue_depth", "", "", "gauge",                    \
    "Requests waiting in the scheduler queue")                               \
  X(queue_peak, "symphase_queue_peak", "", "", "gauge",                      \
    "Highest queue depth ever observed")                                     \
  X(rejected_expired, "symphase_requests_rejected_total", "reason",          \
    "deadline_expired", "counter", kRejectedRequestsHelp)                    \
  X(cancelled, "symphase_requests_cancelled_total", "", "", "counter",       \
    "Requests cancelled while queued or mid-stream")                         \
  X(rejected_queue_full, "symphase_requests_rejected_total", "reason",       \
    "queue_full", "counter", kRejectedRequestsHelp)                          \
  X(rejected_rate_limited, "symphase_requests_rejected_total", "reason",     \
    "rate_limited", "counter", kRejectedRequestsHelp)                        \
  X(rejected_draining, "symphase_requests_rejected_total", "reason",         \
    "draining", "counter", kRejectedRequestsHelp)                            \
  X(shots_in_flight, "symphase_shots_in_flight", "", "", "gauge",            \
    "Shots queued plus running")                                             \
  X(expired_running, "symphase_requests_expired_running_total", "", "",      \
    "counter",                                                               \
    "Requests cut mid-run by the watchdog (deadline or execution cap); "     \
    "pre-run deadline rejections stay in symphase_requests_rejected_total")  \
  X(exec_timeouts, "symphase_exec_timeouts_total", "", "", "counter",        \
    "Watchdog enforcements of the per-request execution wall-clock cap")     \
  X(stalled, "symphase_stalled_requests_total", "", "", "counter",           \
    "In-flight runs flagged for making no shard-chunk progress for "         \
    "stall_warn_ms")                                                         \
  X(worker_restarts, "symphase_worker_restarts_total", "", "", "counter",    \
    "Worker threads respawned after an escaped exception")                   \
  X(error_emit_failures, "symphase_error_emit_failures_total", "", "",       \
    "counter", "Error frames the transport emitter failed to deliver")       \
  X(longest_running_ms, "symphase_longest_running_ms", "", "", "gauge",      \
    "Age in milliseconds of the oldest in-flight run")                       \
  X(workers_alive, "symphase_workers_alive", "", "", "gauge",                \
    "Live worker threads")                                                   \
  X(served_high, "symphase_served_total", "priority", "high", "counter",     \
    kServedRequestsHelp)                                                     \
  X(served_normal, "symphase_served_total", "priority", "normal", "counter", \
    kServedRequestsHelp)                                                     \
  X(served_low, "symphase_served_total", "priority", "low", "counter",       \
    kServedRequestsHelp)

/// Row index of each value: the slot SamplingService counts it in.
enum class ServiceStat : std::size_t {
#define SYMPHASE_STAT_ID(field, ...) field,
  SYMPHASE_SERVICE_STATS(SYMPHASE_STAT_ID)
#undef SYMPHASE_STAT_ID
};

/// A snapshot of the service's counters and gauges. `compiles` counts
/// actual symbolic compilations across all sessions ever cached, so
/// same-digest requests leave it at 1 while `hits` grows: the batching
/// contract of tests/service_test.cpp.
struct ServiceStats {
#define SYMPHASE_STAT_FIELD(field, ...) std::uint64_t field = 0;
  SYMPHASE_SERVICE_STATS(SYMPHASE_STAT_FIELD)
#undef SYMPHASE_STAT_FIELD

  /// One-line "hits=... misses=..." rendering (the stats verb's reply).
  std::string to_line() const;

  /// One-object JSON rendering (the stats verb with json=1, `symphase
  /// stats --json`, GET /v1/stats): to_line()'s values plus one
  /// always-zero legacy key (see the definition).
  std::string to_json() const;
};

/// One row of SYMPHASE_SERVICE_STATS as data, for the renderers.
struct StatRow {
  std::string_view key;  ///< Stats line and JSON key (the field name).
  std::string_view family;
  std::string_view label_name;
  std::string_view label_value;
  std::string_view type;  ///< Prometheus TYPE: "counter" or "gauge".
  std::string_view help;
  std::uint64_t ServiceStats::*field;
};

inline constexpr StatRow kServiceStatRows[] = {
#define SYMPHASE_STAT_ROW(field, family, label_name, label_value, type, help) \
  {#field, family, label_name, label_value, type, help, &ServiceStats::field},
    SYMPHASE_SERVICE_STATS(SYMPHASE_STAT_ROW)
#undef SYMPHASE_STAT_ROW
};

inline constexpr std::size_t kNumServiceStats = std::size(kServiceStatRows);

}  // namespace symphase
