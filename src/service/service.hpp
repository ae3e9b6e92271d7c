#pragma once

/// \file service.hpp
/// SamplingService — the serving front-end over the task/session API.
///
/// The paper's compile-once/sample-many split only pays off under load
/// if concurrent requests for the same circuit actually share one
/// compiled artifact. The service makes that sharing structural:
///
///   submit() --> bounded queue --> worker pool --> LRU session cache
///                                        |              keyed by the
///                                        v              canonical
///                               SimulatorSession        circuit digest
///                                        |
///                                        v
///                    FrameSink: chunked wire frames (wire.hpp)
///
/// Requests carrying the same circuit — whether as inline text (any
/// formatting) or as a registered digest handle — map to the same
/// digest (digest.hpp) and are batched onto one cached
/// SimulatorSession, so N concurrent requests cost one symbolic
/// compilation, observable via stats().  Each request's shots stream
/// through the existing SampleSink machinery and leave as
/// length-prefixed frames: data frames whose concatenation is
/// bit-identical to the direct SimulatorSession output in the chosen
/// writer format, then one final status frame (kFrameLast, plus
/// kFrameError with error text when the request failed).
///
/// The queue is not FIFO: requests carry a priority class and an
/// optional deadline, and workers always take the most urgent pending
/// request (scheduler.hpp). A request whose deadline passed before a
/// worker reached it is rejected with an error frame instead of
/// executed; an accepted request can be cancelled cooperatively — from
/// the queue (never runs) or mid-stream (the engine stops at the next
/// shard-chunk boundary) — via the ticket submit() returns.
///
/// A watchdog thread supervises execution itself: deadlines and the
/// optional per-request wall-clock cap (ServiceOptions::exec_timeout_ms)
/// are enforced mid-run through the same cooperative-cancel path,
/// no-progress runs are flagged after stall_warn_ms, and a worker
/// thread that dies on an escaped exception fails only its in-flight
/// request and is respawned (see docs/service.md, "Watchdog &
/// execution limits").
///
/// The in-process API is below; `symphase serve --stdio` (framed
/// stdin/stdout) and `symphase serve --listen` (the TCP server in
/// src/net/) wrap it — same frames, byte-compatible streams (see
/// docs/service.md).
///
///   SamplingService service;
///   const std::string digest = service.register_circuit(circuit_text);
///   SampleRequest request = SampleRequest::sample("", 100000);
///   request.digest = digest;
///   const std::uint64_t ticket = service.submit(7, request, emit_frame);
///   // ... service.cancel(ticket) to abandon it ...
///   service.drain();

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/session.hpp"
#include "service/admission.hpp"
#include "service/errors.hpp"
#include "service/request.hpp"
#include "service/scheduler.hpp"
#include "service/wire.hpp"

namespace symphase {

/// Per-request stage breakdown, delivered once per finished request
/// (any terminal outcome) to ServiceOptions::timing_observer. Stages
/// partition the request's wall-clock life: queue (acceptance to
/// worker claim), compile (claim to artifacts ready — near zero on a
/// session-cache hit), emit (serializing + shipping chunks), execute
/// (everything else between artifacts-ready and the final frame).
/// Stages that never ran (a request rejected at the gate) are zero.
struct RequestTiming {
  std::uint64_t request_id = 0;
  std::uint64_t ticket = 0;
  /// Transport tag the submitter passed ("frame", "http", "local").
  const char* transport = "local";
  double queue_s = 0;
  double compile_s = 0;
  double execute_s = 0;
  double emit_s = 0;
  double total_s = 0;  ///< Acceptance to final frame; == sum of stages.
  bool ok = false;     ///< True when the request completed successfully.
};

/// Called on worker threads, once per finished request, with no
/// service locks held. Must be thread-safe and cheap (it sits on the
/// completion path of every request).
using TimingObserver = std::function<void(const RequestTiming&)>;

struct ServiceOptions {
  /// Worker threads executing requests (>= 1). Distinct requests run
  /// concurrently; each request additionally parallelizes its own shots
  /// via SampleTask::num_threads.
  std::size_t num_workers = 2;
  /// Bounded queue depth; submit() blocks once this many requests wait.
  std::size_t queue_capacity = 64;
  /// Compiled-session LRU capacity (>= 1). Evicting a session in use is
  /// safe — running requests hold shared ownership — but a re-request of
  /// its digest recompiles.
  std::size_t session_cache_capacity = 8;
  /// Response frames carry at most this many payload bytes; larger
  /// serialized chunks are split across frames.
  std::size_t max_frame_payload = 1u << 20;
  /// Registered-circuit capacity (>= 1, LRU). Like every other bound
  /// here this keeps a hostile or long-running stream of distinct
  /// circuits from growing server memory without limit; an evicted
  /// registration makes its digest handle unknown again (re-register,
  /// or send the circuit inline — inline requests re-register
  /// automatically).
  std::size_t registry_capacity = 256;
  /// Admission control: per-client rate limits, shots-in-flight cap,
  /// and priority shedding thresholds (admission.hpp). Rate limiting
  /// is off by default; the shedding thresholds always apply to
  /// try_submit() callers.
  AdmissionOptions admission;
  /// Per-request execution wall-clock cap in milliseconds (0 = off).
  /// The budget starts when a worker picks the request up; the watchdog
  /// thread cuts an over-budget run at the next shard-chunk boundary
  /// via the cooperative-cancel path and the request ends with a
  /// `deadline_expired` error frame (counted in `exec_timeouts` and
  /// `expired_running`). Orthogonal to `deadline_ms`, which the watchdog
  /// now also enforces mid-run (see docs/service.md, "Watchdog &
  /// execution limits").
  std::uint64_t exec_timeout_ms = 0;
  /// Flag an in-flight request that made no shard-chunk progress for
  /// this long (0 = off): a structured log line through `watchdog_log`
  /// plus the `stalled` counter. Detection only — a stalled request is
  /// not aborted unless a deadline or `exec_timeout_ms` fires.
  std::uint64_t stall_warn_ms = 0;
  /// Sink for the watchdog's structured one-line JSON events (stalls,
  /// mid-run timeout cuts, worker restarts). Unset writes to stderr.
  /// Called without service locks held; must be thread-safe.
  std::function<void(std::string_view line)> watchdog_log;
  /// Test-only fault injection. When set, called on the worker thread
  /// immediately before a request executes, with the 1-based execution
  /// sequence number (the order workers picked requests up) and the
  /// request. Throwing fails exactly that request with an error frame,
  /// the same way a real compile/worker exception would
  /// (std::invalid_argument maps to bad_circuit, anything else to
  /// internal); other requests and the session cache are unaffected —
  /// which is precisely what tests/chaos_test.cpp pins. A hook that
  /// *blocks* wedges the worker mid-claim — the chaos suite drives
  /// stall detection and timeout recovery that way.
  std::function<void(std::uint64_t sequence, const SampleRequest& request)>
      fault_hook;
  /// Per-request stage breakdown sink — the shared instrument path
  /// behind `symphase_stage_duration_seconds` and
  /// `symphase_request_duration_seconds` on every transport (the
  /// socket server wires it into the gateway's MetricsRegistry).
  TimingObserver timing_observer;
  /// Log one structured JSON line (`"event":"slow_request"`, full
  /// stage breakdown) through `watchdog_log` for every request whose
  /// end-to-end time exceeds this many milliseconds (0 = off).
  std::uint64_t slow_request_ms = 0;
  /// Test-only worker-crash injection: called once per claimed job, on
  /// the worker thread, *outside* the per-job exception handlers. A
  /// throw escapes to the supervision wrapper, which fails the
  /// in-flight job with an `internal` error frame and respawns the
  /// worker thread (`worker_restarts` counts it) — the
  /// exception-escaped-the-handlers path that would otherwise call
  /// std::terminate.
  std::function<void(std::size_t worker_index)> worker_fault_hook;
};

/// Monotonic service counters. Cache counters pin the batching contract
/// (tests/service_test.cpp): `compiles` counts actual symbolic
/// compilations across all sessions ever cached, so same-digest requests
/// leave it at 1 while `hits` grows.
struct ServiceStats {
  std::uint64_t hits = 0;        ///< Requests served by a cached session.
  std::uint64_t misses = 0;      ///< Requests that created a session.
  std::uint64_t evictions = 0;   ///< Sessions dropped by LRU pressure.
  std::uint64_t compiles = 0;    ///< CompiledSampler builds (kSymPhase).
  std::uint64_t frame_builds = 0;  ///< FrameSimulator builds (kFrameSimulator).
  std::uint64_t completed = 0;   ///< Requests finished successfully.
  std::uint64_t failed = 0;      ///< Requests that ended in an error frame
                                 ///< (excluding expired/cancelled below).
  // Scheduler counters (the queue-metrics contract of
  // tests/scheduler_test.cpp):
  std::uint64_t queue_depth = 0;  ///< Requests waiting right now.
  std::uint64_t queue_peak = 0;   ///< Highest queue_depth ever observed.
  std::uint64_t rejected_expired = 0;  ///< Deadline passed before start.
  std::uint64_t cancelled = 0;         ///< Cancelled (queued or mid-stream).
  // Watchdog counters (mid-run enforcement — distinct from the pre-run
  // rejected_expired above):
  std::uint64_t expired_running = 0;  ///< Cut mid-run (deadline or exec cap).
  std::uint64_t exec_timeouts = 0;    ///< exec_timeout_ms enforcements.
  std::uint64_t stalled = 0;          ///< Stall warnings (no-progress runs).
  std::uint64_t worker_restarts = 0;  ///< Workers respawned after a crash.
  std::uint64_t error_emit_failures = 0;  ///< Error frames the emitter
                                          ///< itself failed to deliver.
  // Admission counters (requests turned away before entering the
  // queue, by structured error code):
  std::uint64_t rejected_queue_full = 0;     ///< Full or priority-shed.
  std::uint64_t rejected_rate_limited = 0;   ///< Client over budget.
  std::uint64_t rejected_draining = 0;       ///< Arrived during drain.
  std::uint64_t shots_in_flight = 0;  ///< Gauge: shots queued + running.
  /// Gauge: age in ms of the oldest in-flight run (0 when idle) — a
  /// wedged worker shows up here long before any timeout fires.
  std::uint64_t longest_running_ms = 0;
  std::uint64_t workers_alive = 0;  ///< Gauge: live worker threads.
  /// Successfully completed requests by priority class, indexed by
  /// RequestPriority (high, normal, low).
  std::uint64_t served[kNumPriorities] = {0, 0, 0};

  /// One-line "hits=... misses=..." rendering (the stats verb's reply).
  std::string to_line() const;

  /// Machine-readable one-object JSON rendering (the stats verb with
  /// json=1, `symphase stats --json`, and GET /v1/stats). Same fields
  /// as to_line(), plus served counts keyed by priority name and one
  /// always-zero legacy key (see the definition).
  std::string to_json() const;
};

/// Snapshot of the service's readiness, for the `health` verb: load
/// balancers poll it to stop routing to a draining instance, and the
/// drain tests observe state transitions through it.
struct ServiceHealth {
  bool accepting = true;  ///< False once draining or stopped.
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::size_t active_jobs = 0;  ///< Requests currently executing.
  std::uint64_t shots_in_flight = 0;
  std::uint64_t max_shots_in_flight = 0;  ///< 0 = uncapped.
  /// Age in ms of the oldest in-flight run (0 when idle): readiness
  /// probes use it to spot a wedged-but-accepting server.
  std::uint64_t longest_running_ms = 0;
  std::uint64_t workers_alive = 0;  ///< Live worker threads.

  /// One-line "state=accepting|draining queue_depth=..." rendering.
  std::string to_line() const;

  /// JSON rendering (health verb with json=1 and GET /healthz).
  std::string to_json() const;
};

/// Emits one response frame. `header.payload_bytes` is already set to
/// `payload.size()`. Called from worker threads — possibly several
/// concurrently for *different* requests — so sharing one output stream
/// requires external serialization (the stdio loop holds a write mutex).
/// Frames of a single request arrive in order from one worker.
using FrameFn =
    std::function<void(const FrameHeader& header, std::string_view payload)>;

class SamplingService {
 public:
  explicit SamplingService(ServiceOptions options = {});
  /// Stops accepting work, finishes queued requests, joins workers.
  ~SamplingService();

  SamplingService(const SamplingService&) = delete;
  SamplingService& operator=(const SamplingService&) = delete;

  /// Parses and registers `circuit_text`, returning its canonical
  /// digest for use as a SampleRequest::digest handle. Registration is
  /// idempotent and survives session eviction. Throws on parse errors.
  std::string register_circuit(std::string_view circuit_text);

  /// Enqueues a sample/detect request (scheduled by its priority/
  /// deadline_ms fields). Blocks while the queue is full or the
  /// shots-in-flight cap is reached (backpressure); throws
  /// std::invalid_argument for non-sampling verbs or a stopped
  /// service. All outcomes after acceptance — including unknown
  /// digests, circuit parse errors, expired deadlines, and cancellation
  /// — are reported through `emit` as wire frames, never thrown.
  ///
  /// Returns the request's scheduler ticket, valid until the final
  /// status frame is emitted — pass it to cancel(). Tickets are unique
  /// across the service's lifetime (request_id is only stamped into
  /// frames, so transports can scope ids per client).
  ///
  /// Admission control can still turn a blocking submit away without
  /// queueing it (the service is draining, or `client_id`'s rate
  /// budget is exhausted): submit returns 0, no frame is emitted, and
  /// `*rejection` (when non-null) carries the structured error for the
  /// transport to ship. `client_id` scopes the per-client rate bucket;
  /// transports pass a stable id per connection (0 = one shared
  /// bucket).
  /// `transport` tags the request's timing observations and slow-log
  /// lines; pass a string literal ("frame", "http") — the pointer is
  /// kept for the request's lifetime.
  std::uint64_t submit(std::uint64_t request_id, SampleRequest request,
                       FrameFn emit, std::uint64_t client_id = 0,
                       ServiceError* rejection = nullptr,
                       const char* transport = "local");

  /// Non-blocking submit: where submit() would wait, try_submit
  /// rejects. For callers that must never park on queue capacity — the
  /// socket server's event-loop thread drains the very client sockets
  /// the workers may be blocked on, so blocking it on queue space
  /// could deadlock the transport.
  ///
  /// Returns 0 (never a valid ticket) when admission turns the request
  /// away: queue full, priority class shed under pressure, shot
  /// capacity saturated, client rate-limited, or draining. `*rejection`
  /// (when non-null) carries the structured error — including the
  /// retryable bit and a retry_after_ms backoff hint.
  std::uint64_t try_submit(std::uint64_t request_id, SampleRequest request,
                           FrameFn emit, std::uint64_t client_id = 0,
                           ServiceError* rejection = nullptr,
                           const char* transport = "local");

  /// Installs/replaces the timing observer after construction. The
  /// socket server uses this to wire the gateway's metrics registry in
  /// (the gateway is built after the service). Not synchronized with
  /// in-flight completions: call before the transport starts accepting
  /// requests.
  void set_timing_observer(TimingObserver observer) {
    options_.timing_observer = std::move(observer);
  }

  /// Cancels the request behind `ticket`. A still-queued request is
  /// removed and answered with an error frame immediately (it never
  /// compiles or samples); an in-flight one stops at the next
  /// shard-chunk boundary and ends with an error frame. Returns false
  /// when the ticket is unknown or the request already finished —
  /// including when its cancellation was already requested.
  ///
  /// Cancellation is cooperative, so `true` means the cancellation was
  /// *claimed*, not that work was necessarily prevented: a request past
  /// its last boundary check completes normally (success frames, served
  /// counters) despite the claim. Treat the request's own final frame
  /// as the source of truth for how it ended.
  bool cancel(std::uint64_t ticket);

  /// Blocks until every submitted request has finished (its final
  /// status frame emitted).
  void drain();

  /// Flips the service to draining: every subsequent submit/try_submit
  /// is rejected with a `draining` error while already-accepted work
  /// keeps running to completion. Does not block (pair with drain() to
  /// wait) and does not stop workers — the graceful-shutdown sequence
  /// is begin_drain(); drain(); stop(). Idempotent, thread-safe, and
  /// safe from signal-handling contexts that already defer to a normal
  /// thread (the CLI forwards SIGTERM through the socket server's
  /// self-pipe, which calls this from the event loop).
  void begin_drain();

  /// Whether begin_drain() was called (or the service stopped).
  bool draining() const;

  /// Readiness snapshot for the `health` verb. Never blocks on work.
  ServiceHealth health() const;

  /// drain() + reject future submissions + join workers. Idempotent.
  void stop();

  /// Drops every cached session (stats keep counting their compiles;
  /// each drop counts as an eviction). Registered circuits remain.
  void clear_sessions();

  ServiceStats stats() const;

  const ServiceOptions& options() const { return options_; }

 private:
  struct Job {
    std::uint64_t request_id = 0;
    std::uint64_t ticket = 0;
    SampleRequest request;
    FrameFn emit;
    SchedulerClock::time_point deadline = kNoDeadline;
    /// Shots charged against admission at acceptance; released exactly
    /// once when the job leaves (finished or cancelled out of queue).
    std::uint64_t shots = 0;
    /// Set by cancel(); polled by the streaming engine at shard-chunk
    /// boundaries. Shared so cancel() can reach a job a worker owns.
    std::shared_ptr<std::atomic<bool>> cancel_flag;
    /// Why the watchdog flipped cancel_flag (kAbortNone when it did
    /// not): lets the worker map the resulting TaskCancelled to
    /// `deadline_expired` instead of `cancelled`. The watchdog stores
    /// the reason *before* the flag, so a worker that observed the flag
    /// sees the reason too.
    std::shared_ptr<std::atomic<std::uint32_t>> abort_reason;
    /// Shard-chunk heartbeat: bumped by the frame sink on every chunk
    /// delivered, read by the watchdog for stall detection.
    std::shared_ptr<std::atomic<std::uint64_t>> progress;
    /// Transport tag from submit() — a string literal ("frame", "http",
    /// "local"), stamped on timing observations and slow-request logs.
    const char* transport = "local";
    /// Lifecycle clock marks (common/trace.hpp steady ns): acceptance
    /// (ticket assignment) and worker claim. Zero until stamped.
    std::uint64_t accept_ns = 0;
    std::uint64_t claim_ns = 0;
  };

  /// Job::abort_reason values.
  static constexpr std::uint32_t kAbortNone = 0;
  static constexpr std::uint32_t kAbortDeadline = 1;
  static constexpr std::uint32_t kAbortExecTimeout = 2;

  /// How a processed request ended (drives which counter it lands in
  /// and the final frame's error text). kExpired is the pre-run
  /// rejection (rejected_expired); kExpiredRunning is a mid-run
  /// watchdog cut (expired_running).
  enum class Outcome {
    kCompleted,
    kFailed,
    kExpired,
    kCancelled,
    kExpiredRunning
  };

  struct CacheEntry {
    std::shared_ptr<SimulatorSession> session;
    std::list<std::string>::iterator lru_position;
  };

  struct RegistryEntry {
    Circuit circuit;
    std::list<std::string>::iterator lru_position;
  };

  /// One in-flight job as the watchdog sees it, keyed by ticket in
  /// running_. Watchdog-side fields (seen_progress, progress_time,
  /// aborted, stall_flagged) are only touched under watch_mutex_; the
  /// shared_ptrs reach into the job a worker owns.
  struct RunWatch {
    std::uint64_t request_id = 0;
    std::size_t worker = 0;
    SchedulerClock::time_point start;
    SchedulerClock::time_point deadline = kNoDeadline;
    SchedulerClock::time_point exec_deadline = kNoDeadline;
    std::shared_ptr<std::atomic<bool>> cancel_flag;
    std::shared_ptr<std::atomic<std::uint32_t>> abort_reason;
    std::shared_ptr<std::atomic<std::uint64_t>> progress;
    std::uint64_t seen_progress = 0;
    SchedulerClock::time_point progress_time;
    bool aborted = false;
    bool stall_flagged = false;
  };

  /// Inserts/refreshes a registration (cache_mutex_ must be held).
  void register_locked(const std::string& digest, Circuit circuit);

  void worker_loop(std::size_t worker_index);
  /// The watchdog thread: sweeps running_, enforces deadlines and the
  /// exec-timeout cap through the cooperative-cancel path, and flags
  /// stalls. Sleeps until the next enforcement moment (no fixed tick).
  void watchdog_loop();
  /// Publishes/retracts a claimed job in the watchdog's registry.
  void register_running(const Job& job, std::size_t worker_index);
  void unregister_running(const Job& job);
  /// Age in ms of the oldest registered run; 0 when idle.
  std::uint64_t longest_running_ms() const;
  /// Ships one structured event line to watchdog_log (or stderr).
  void watchdog_emit(const std::string& line) const;
  /// Shared submit path; `blocking` selects wait-for-space vs reject.
  std::uint64_t submit_impl(std::uint64_t request_id, SampleRequest request,
                            FrameFn emit, std::uint64_t client_id,
                            ServiceError* rejection, const char* transport,
                            bool blocking);
  /// Terminal-path timing fan-out: derives the request's stage
  /// breakdown (queue/compile/execute/emit) from the job's clock marks,
  /// records the trace "execute" span, fires timing_observer, and logs
  /// a slow_request line when the total crosses slow_request_ms.
  /// Called exactly once per finished request, no service locks held;
  /// stages that never ran arrive as zeros.
  void finish_timing(const Job& job, std::uint64_t compile_done_ns,
                     std::uint64_t emit_ns, std::uint64_t end_ns,
                     bool ok) const;
  /// Executes one claimed job on the calling worker thread: the
  /// deadline/cancel gate and fault hook, the session lookup, the
  /// compile bracket, the streamed run, and outcome accounting.
  void process(Job& job);
  /// Folds one finished request into the stats counters.
  void account(Outcome outcome, RequestPriority priority);
  /// Counts one admission rejection under its error code.
  void account_rejection(ErrorCode code);
  /// Ships the final error-flagged frame (structured payload,
  /// errors.hpp); swallows emitter failures.
  void emit_error_frame(const Job& job, std::uint32_t chunk_index,
                        const ServiceError& error);
  /// Error frame + accounting for a request that never started
  /// (deadline-expired or cancelled while queued).
  void finish_without_running(Job& job, Outcome outcome,
                              const ServiceError& error);
  /// Cache lookup/insert; `digest` must already be registered.
  std::shared_ptr<SimulatorSession> session_for(const std::string& digest);
  /// Folds a leaving session's built artifacts into the retired tally
  /// (cache_mutex_ must be held).
  void retire_artifacts(const SimulatorSession& session);

  ServiceOptions options_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_space_;  // submit() waits for room
  std::condition_variable queue_work_;   // workers wait for jobs
  std::condition_variable queue_idle_;   // drain() waits for quiescence
  DeadlineQueue<Job> queue_;
  /// Cancel flags of accepted-but-unfinished requests, keyed by ticket.
  /// An entry exists from submit() until the final status frame.
  std::unordered_map<std::uint64_t, std::shared_ptr<std::atomic<bool>>>
      cancel_flags_;
  std::uint64_t next_ticket_ = 1;
  std::uint64_t queue_peak_ = 0;
  std::size_t active_jobs_ = 0;
  bool stopping_ = false;
  bool draining_ = false;
  /// Admission state (buckets, shots in flight); queue_mutex_ guards it
  /// so queue depth and admission decisions move atomically together.
  AdmissionController admission_;
  /// 1-based counter behind ServiceOptions::fault_hook sequences.
  std::atomic<std::uint64_t> fault_sequence_{0};
  /// Worker thread handles (queue_mutex_: a crashed worker swaps its
  /// own slot for its replacement while stop() may be joining).
  std::vector<std::thread> workers_;

  // Watchdog state. watch_mutex_ is leaf-level: nothing is locked
  // under it, and it is never held while calling out (log sinks run
  // unlocked).
  mutable std::mutex watch_mutex_;
  std::condition_variable watch_cv_;
  /// In-flight runs by ticket, published at claim time.
  std::unordered_map<std::uint64_t, RunWatch> running_;
  /// Bumped (under watch_mutex_) whenever running_ changes, so the
  /// watchdog's wait predicate never misses a registration.
  std::uint64_t watch_epoch_ = 0;
  bool watch_stop_ = false;
  std::thread watchdog_;
  std::atomic<std::uint64_t> exec_timeouts_{0};
  std::atomic<std::uint64_t> stalled_{0};
  std::atomic<std::uint64_t> worker_restarts_{0};
  std::atomic<std::uint64_t> error_emit_failures_{0};
  std::atomic<std::uint64_t> workers_alive_{0};

  mutable std::mutex cache_mutex_;
  std::unordered_map<std::string, RegistryEntry> registry_;
  std::list<std::string> registry_lru_;  // front = most recently used
  std::unordered_map<std::string, CacheEntry> cache_;
  std::list<std::string> lru_;  // front = most recently used digest
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  /// Compiles/builds of sessions no longer in the cache.
  std::uint64_t retired_compiles_ = 0;
  std::uint64_t retired_frame_builds_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t rejected_expired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t expired_running_ = 0;
  std::uint64_t rejected_queue_full_ = 0;
  std::uint64_t rejected_rate_limited_ = 0;
  std::uint64_t rejected_draining_ = 0;
  std::uint64_t served_[kNumPriorities] = {0, 0, 0};
};

}  // namespace symphase
