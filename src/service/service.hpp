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
/// compilation, observable via stats(): a request counts a compile
/// when its own compile bracket (SimulatorSession::prepare) built one.
/// Each request's shots stream through the existing SampleSink
/// machinery and leave as length-prefixed frames: data frames whose
/// concatenation is bit-identical to the direct SimulatorSession output
/// in the chosen writer format, then one final status frame
/// (kFrameLast, plus kFrameError with error text when the request
/// failed).
///
/// Every accepted request ends in one private epilogue, finish(),
/// whatever its outcome: it ships the error final frame, counts the
/// outcome, and reports the request's stages (RequestStage) to the
/// trace, the timing observer and the slow_request log.
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
/// The in-process API is below. The frame protocol reaches it through
/// one FrameSession per client (frame_session.hpp), which both
/// `symphase serve --stdio` (framed stdin/stdout) and `symphase serve
/// --listen` (the TCP server in src/net/) run — same frames,
/// byte-compatible streams (see docs/service.md).
///
///   SamplingService service;
///   const std::string digest = service.register_circuit(circuit_text);
///   SampleRequest request = SampleRequest::sample("", 100000);
///   request.digest = digest;
///   const std::uint64_t ticket = service.submit(7, request, emit_frame);
///   // ... service.cancel(ticket) to abandon it ...
///   service.drain();

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iterator>
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
#include "service/stats.hpp"
#include "service/wire.hpp"

namespace symphase {

/// The stages of a request's wall-clock life, in the order every
/// rendering lists them (Server-Timing, the slow_request line, the
/// stage histograms). The stages before kTotal partition it: queue
/// (acceptance to worker claim), compile (claim to artifacts ready —
/// near zero on a session-cache hit), execute (the rest of the window
/// from artifacts ready to the final frame) and emit (serializing +
/// shipping chunks). kTotal is acceptance to final frame. Adding a
/// stage is a row here and in kRequestStageNames, plus the site that
/// measures it.
enum class RequestStage : std::uint8_t {
  kQueue,
  kCompile,
  kExecute,
  kEmit,
  kTotal,
};

inline constexpr std::string_view kRequestStageNames[] = {
    "queue", "compile", "execute", "emit", "total"};
inline constexpr std::size_t kNumRequestStages = std::size(kRequestStageNames);
static_assert(static_cast<std::size_t>(RequestStage::kTotal) ==
              kNumRequestStages - 1);

/// The transport a request was submitted through. It tags the
/// request's timing observation and slow_request line.
enum class RequestTransport : std::uint8_t { kFrame, kHttp, kLocal };

inline constexpr std::string_view kRequestTransportNames[] = {"frame", "http",
                                                              "local"};
inline constexpr std::size_t kNumRequestTransports =
    std::size(kRequestTransportNames);
static_assert(static_cast<std::size_t>(RequestTransport::kLocal) ==
              kNumRequestTransports - 1);

/// Per-request stage breakdown, delivered once per finished request
/// (any terminal outcome) to ServiceOptions::timing_observer. Stages
/// that never ran (a request rejected at the gate) are zero.
struct RequestTiming {
  std::uint64_t request_id = 0;
  std::uint64_t ticket = 0;
  RequestTransport transport = RequestTransport::kLocal;
  /// Seconds spent in each stage, indexed by RequestStage.
  std::array<double, kNumRequestStages> seconds{};
  bool ok = false;  ///< True when the request completed successfully.
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
  AdmissionOptions admission{};
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
  std::function<void(std::string_view line)> watchdog_log{};
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
      fault_hook{};
  /// Per-request stage breakdown sink — the shared instrument path
  /// behind `symphase_stage_duration_seconds` and
  /// `symphase_request_duration_seconds` on every transport (the
  /// socket server wires it into the gateway's MetricsRegistry).
  TimingObserver timing_observer{};
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
  std::function<void(std::size_t worker_index)> worker_fault_hook{};
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

/// Emits `error` as the final, error-flagged frame of `request_id`,
/// numbered `chunk_index` (the count of frames the request already
/// sent). Every error final frame, of the service and of the frame
/// transports, is written here.
void emit_error_reply(const FrameFn& emit, std::uint64_t request_id,
                      const ServiceError& error,
                      std::uint32_t chunk_index = 0);

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
  /// lines.
  std::uint64_t submit(std::uint64_t request_id, SampleRequest request,
                       FrameFn emit, std::uint64_t client_id = 0,
                       ServiceError* rejection = nullptr,
                       RequestTransport transport = RequestTransport::kLocal);

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
  std::uint64_t try_submit(
      std::uint64_t request_id, SampleRequest request, FrameFn emit,
      std::uint64_t client_id = 0, ServiceError* rejection = nullptr,
      RequestTransport transport = RequestTransport::kLocal);

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

  /// Drops every cached session; each drop counts as an eviction.
  /// Registered circuits remain.
  void clear_sessions();

  ServiceStats stats() const;

  const ServiceOptions& options() const { return options_; }

 private:
  /// RunControl::abort_reason values.
  static constexpr std::uint32_t kAbortNone = 0;
  static constexpr std::uint32_t kAbortDeadline = 1;
  static constexpr std::uint32_t kAbortExecTimeout = 2;

  /// How one accepted request is steered while it runs, allocated once
  /// at submit. Its Job owns it; controls_ (for cancel()) and the
  /// watchdog's RunWatch point at it, and both drop their pointer
  /// before the Job that owns it is destroyed.
  struct RunControl {
    /// Set by cancel() or the watchdog; the streaming engine polls it
    /// at shard-chunk boundaries.
    std::atomic<bool> cancel{false};
    /// Why the watchdog set `cancel` (kAbortNone when it did not): lets
    /// the worker map the resulting TaskCancelled to `deadline_expired`
    /// instead of `cancelled`. The watchdog stores the reason (release)
    /// *before* the flag, so a worker that observed the flag and loads
    /// the reason (acquire) sees it.
    std::atomic<std::uint32_t> abort_reason{kAbortNone};
    /// Shard-chunk heartbeat: bumped by the frame sink on every chunk
    /// delivered, read by the watchdog for stall detection.
    std::atomic<std::uint64_t> progress{0};
  };

  struct Job {
    std::uint64_t request_id = 0;
    std::uint64_t ticket = 0;
    SampleRequest request;
    FrameFn emit;
    SchedulerClock::time_point deadline = kNoDeadline;
    /// Shots charged against admission at acceptance; released exactly
    /// once when the job leaves (finished or cancelled out of queue).
    std::uint64_t shots = 0;
    std::unique_ptr<RunControl> control;
    /// Transport tag from submit(), stamped on timing observations and
    /// slow-request logs.
    RequestTransport transport = RequestTransport::kLocal;
    /// Lifecycle clock marks (common/trace.hpp steady ns): acceptance
    /// (ticket assignment) and worker claim. Zero until stamped.
    std::uint64_t accept_ns = 0;
    std::uint64_t claim_ns = 0;
  };

  /// A run's clock marks past the claim (steady ns), zero where the
  /// request never got that far.
  struct RunMarks {
    std::uint64_t compile_done_ns = 0;  ///< Artifacts ready.
    std::uint64_t emit_ns = 0;  ///< Serialize+ship time over all chunks.
    /// When the final frame was due; 0 means when finish() runs.
    std::uint64_t end_ns = 0;
  };

  /// How a request ends: the outcome row it counts in and, for every
  /// outcome but `completed`, the error its final frame carries.
  struct Ending {
    ServiceStat outcome = ServiceStat::completed;
    ServiceError error{};
  };

  /// A request's stage partition in ns, indexed by RequestStage.
  using StageNs = std::array<std::uint64_t, kNumRequestStages>;

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
  /// aborted, stall_flagged) are only touched under watch_mutex_;
  /// `control` is the RunControl of the job a worker owns.
  struct RunWatch {
    std::uint64_t request_id = 0;
    std::size_t worker = 0;
    SchedulerClock::time_point start;
    SchedulerClock::time_point deadline = kNoDeadline;
    SchedulerClock::time_point exec_deadline = kNoDeadline;
    RunControl* control = nullptr;
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
                            ServiceError* rejection,
                            RequestTransport transport, bool blocking);
  /// Derives the stage partition from the job's and the run's clock
  /// marks; a stage whose marks were never reached is zero.
  static StageNs stage_breakdown(const Job& job, const RunMarks& marks);
  /// The end of a request whose cancel flag was found set, at the gate
  /// or `mid_run`: the watchdog's stored reason makes it
  /// `expired_running`, otherwise the client cancelled it.
  static Ending cut_ending(const RunControl& control, bool mid_run);
  /// The one way an accepted request ends, called exactly once per
  /// request with no service locks held: ships the error final frame
  /// (numbered `next_chunk`) unless the request completed, counts the
  /// outcome (served_* first), records the trace "execute" span and
  /// the done/aborted instant, fires timing_observer, and logs a
  /// slow_request line when the total crosses slow_request_ms.
  void finish(const Job& job, const Ending& ending, std::uint32_t next_chunk,
              RunMarks marks);
  /// Executes one claimed job on the calling worker thread: the
  /// deadline/cancel gate and fault hook, the session lookup, the
  /// compile bracket, the streamed run and the final frame.
  void process(Job& job);
  /// The counter slot of `stat`.
  std::atomic<std::uint64_t>& counter(ServiceStat stat) {
    return counters_[static_cast<std::size_t>(stat)];
  }
  const std::atomic<std::uint64_t>& counter(ServiceStat stat) const {
    return counters_[static_cast<std::size_t>(stat)];
  }
  /// Adds one to the counter of `stat`. Release, against stats()'s
  /// acquire loads in table order: a snapshot that read a count sees,
  /// in later rows, what was bumped before it (served_* before
  /// completed, exec_timeouts before the expired_running it caused).
  void bump(ServiceStat stat, std::uint64_t count = 1) {
    counter(stat).fetch_add(count, std::memory_order_release);
  }
  /// Counts one admission rejection under its error code.
  void account_rejection(ErrorCode code);
  /// Cache lookup/insert; `digest` must already be registered.
  std::shared_ptr<SimulatorSession> session_for(const std::string& digest);

  ServiceOptions options_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_space_;  // submit() waits for room
  std::condition_variable queue_work_;   // workers wait for jobs
  std::condition_variable queue_idle_;   // drain() waits for quiescence
  DeadlineQueue<Job> queue_;
  /// Run controls of accepted-but-unfinished requests, keyed by ticket.
  /// An entry exists from submit() until the final status frame.
  std::unordered_map<std::uint64_t, RunControl*> controls_;
  std::uint64_t next_ticket_ = 1;
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

  mutable std::mutex cache_mutex_;
  std::unordered_map<std::string, RegistryEntry> registry_;
  std::list<std::string> registry_lru_;  // front = most recently used
  std::unordered_map<std::string, CacheEntry> cache_;
  std::list<std::string> lru_;  // front = most recently used digest

  /// One slot per ServiceStat row. Counters only grow; queue_peak is
  /// raised under queue_mutex_ and workers_alive moves both ways. The
  /// compiles and frame_builds slots are bumped by the compile bracket
  /// of the request whose prepare() built the artifact. The
  /// queue_depth, shots_in_flight and longest_running_ms slots stay
  /// zero: stats() computes those.
  std::atomic<std::uint64_t> counters_[kNumServiceStats] = {};
};

}  // namespace symphase
