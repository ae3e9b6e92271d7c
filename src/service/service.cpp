#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <utility>

#include "api/sample_stream.hpp"
#include "circuit/parser.hpp"
#include "common/check.hpp"
#include "common/trace.hpp"
#include "service/digest.hpp"

namespace symphase {

namespace {

/// One request's stage partition, in steady-clock ns. queue + compile +
/// execute + emit == total up to clamping (each stage is clamped at 0
/// individually, so a degenerate clock never produces underflowed
/// giants).
struct StageBreakdown {
  std::uint64_t queue_ns = 0;
  std::uint64_t compile_ns = 0;
  std::uint64_t execute_ns = 0;
  std::uint64_t emit_ns = 0;
  std::uint64_t total_ns = 0;
};

/// Derives the partition from the lifecycle marks. Marks a request
/// never reached are zero and collapse their stage to zero: a request
/// cancelled in the queue has only queue time, a cache-hit compile is
/// near-zero, an errored run keeps whatever it accrued. `emit_ns` is
/// the sink-accumulated serialize+ship time; execute is the rest of
/// the post-compile window.
StageBreakdown stage_breakdown(std::uint64_t accept_ns, std::uint64_t claim_ns,
                               std::uint64_t compile_done_ns,
                               std::uint64_t emit_ns, std::uint64_t end_ns) {
  const auto delta = [](std::uint64_t from, std::uint64_t to) {
    return to > from ? to - from : 0;
  };
  if (claim_ns == 0) {
    claim_ns = end_ns;
  }
  if (compile_done_ns == 0) {
    compile_done_ns = claim_ns;
  }
  StageBreakdown s;
  s.queue_ns = delta(accept_ns, claim_ns);
  s.compile_ns = delta(claim_ns, compile_done_ns);
  s.emit_ns = emit_ns;
  const std::uint64_t run_ns = delta(compile_done_ns, end_ns);
  s.execute_ns = run_ns > emit_ns ? run_ns - emit_ns : 0;
  s.total_ns = delta(accept_ns, end_ns);
  return s;
}

/// Renders ns as fixed-point milliseconds with microsecond precision
/// ("12.345") — locale-independent, no scientific notation.
void append_ms(std::ostringstream& oss, std::uint64_t ns) {
  const std::uint64_t us = ns / 1000;
  oss << us / 1000 << '.' << std::setw(3) << std::setfill('0') << us % 1000
      << std::setfill(' ');
}

/// The Server-Timing value (RFC draft syntax: `name;dur=ms, ...`) the
/// gateway forwards verbatim as an HTTP trailer and the frame protocol
/// carries in its kFrameTiming final frame.
std::string render_server_timing(const StageBreakdown& s) {
  std::ostringstream oss;
  const auto stage = [&oss](const char* name, std::uint64_t ns, bool first) {
    if (!first) {
      oss << ", ";
    }
    oss << name << ";dur=";
    append_ms(oss, ns);
  };
  stage("queue", s.queue_ns, true);
  stage("compile", s.compile_ns, false);
  stage("execute", s.execute_ns, false);
  stage("emit", s.emit_ns, false);
  stage("total", s.total_ns, false);
  return oss.str();
}

/// SampleSink that renders each chunk with append_samples into one
/// reused byte buffer (the same renderer and ptb64 alignment check as
/// the streaming CLI's WriterSink) and ships the bytes as wire data
/// frames, split at the payload cap. end() appends the final status
/// frame.
class FrameSink final : public SampleSink {
 public:
  FrameSink(std::uint64_t request_id, SampleFormat format,
            std::size_t max_payload, const FrameFn& emit,
            std::atomic<std::uint64_t>* progress, std::uint64_t ticket,
            bool want_timing)
      : request_id_(request_id),
        max_payload_(max_payload),
        emit_(emit),
        progress_(progress),
        ticket_(ticket),
        format_(format),
        want_timing_(want_timing) {}

  /// Installs the pre-execution clock marks the final timing frame
  /// needs. Called once the compile stage has finished, before any
  /// chunk flows; all marks are steady-clock ns (common/trace.hpp).
  void set_timing_marks(std::uint64_t accept_ns, std::uint64_t claim_ns,
                        std::uint64_t compile_done_ns) {
    accept_ns_ = accept_ns;
    claim_ns_ = claim_ns;
    compile_done_ns_ = compile_done_ns;
  }

  void begin(const SampleStreamInfo& info) override { info_ = info; }

  void consume(const SampleChunk& chunk) override {
    const std::uint64_t t0 = trace::now_ns();
    check_writable_chunk(chunk, format_, info_);
    buffer_.clear();
    append_samples(buffer_, *chunk.bits, format_, info_.num_detectors, 0,
                   chunk.num_shots);
    for (std::size_t offset = 0; offset < buffer_.size();
         offset += max_payload_) {
      FrameHeader header;
      header.request_id = request_id_;
      header.chunk_index = next_chunk_++;
      const std::string_view slice =
          std::string_view(buffer_).substr(offset, max_payload_);
      header.payload_bytes = static_cast<std::uint32_t>(slice.size());
      emit_(header, slice);
    }
    const std::uint64_t t1 = trace::now_ns();
    emit_ns_ += t1 - t0;
    trace::span("emit", t0, t1, request_id_, ticket_, next_chunk_);
    // The heartbeat the watchdog's stall detector reads: one tick per
    // shard chunk delivered, bumped after the bytes shipped (a sink
    // blocked on a slow reader is a stall too).
    if (progress_ != nullptr) {
      progress_->fetch_add(1, std::memory_order_relaxed);
    }
  }

  void end() override {
    end_ns_ = trace::now_ns();
    FrameHeader header;
    header.request_id = request_id_;
    header.chunk_index = next_chunk_++;
    header.flags = kFrameLast;
    std::string payload;
    if (want_timing_) {
      // The client asked for the stage summary (`timing=1`): the final
      // frame carries it as a kFrameTiming payload instead of the
      // classic empty body. Clients that did not opt in never see the
      // flag, so their byte streams are unchanged.
      header.flags |= kFrameTiming;
      payload = render_server_timing(stage_breakdown(
          accept_ns_, claim_ns_, compile_done_ns_, emit_ns_, end_ns_));
      header.payload_bytes = static_cast<std::uint32_t>(payload.size());
    }
    emit_(header, payload);
  }

  /// The chunk index an error frame should carry to stay contiguous.
  std::uint32_t next_chunk_index() const { return next_chunk_; }

  /// Accumulated serialize+ship time across every chunk (ns).
  std::uint64_t emit_ns() const { return emit_ns_; }
  /// When the final frame shipped (steady ns); 0 if end() never ran
  /// (errored/cancelled streams are abandoned without end()).
  std::uint64_t end_ns() const { return end_ns_; }

 private:
  std::uint64_t request_id_;
  std::size_t max_payload_;
  const FrameFn& emit_;
  std::atomic<std::uint64_t>* progress_;
  std::uint64_t ticket_;
  SampleFormat format_;
  bool want_timing_;
  SampleStreamInfo info_;
  std::uint64_t accept_ns_ = 0;
  std::uint64_t claim_ns_ = 0;
  std::uint64_t compile_done_ns_ = 0;
  std::uint64_t emit_ns_ = 0;
  std::uint64_t end_ns_ = 0;
  std::string buffer_;
  std::uint32_t next_chunk_ = 0;
};

std::uint64_t ms_between(SchedulerClock::time_point from,
                         SchedulerClock::time_point to) {
  if (to <= from) {
    return 0;
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(to - from)
          .count());
}

}  // namespace

std::string ServiceStats::to_line() const {
  std::ostringstream oss;
  oss << "hits=" << hits << " misses=" << misses << " evictions=" << evictions
      << " compiles=" << compiles << " frame_builds=" << frame_builds
      << " completed=" << completed << " failed=" << failed
      << " queue_depth=" << queue_depth << " queue_peak=" << queue_peak
      << " rejected_expired=" << rejected_expired
      << " cancelled=" << cancelled
      << " rejected_queue_full=" << rejected_queue_full
      << " rejected_rate_limited=" << rejected_rate_limited
      << " rejected_draining=" << rejected_draining
      << " shots_in_flight=" << shots_in_flight
      << " expired_running=" << expired_running
      << " exec_timeouts=" << exec_timeouts << " stalled=" << stalled
      << " worker_restarts=" << worker_restarts
      << " error_emit_failures=" << error_emit_failures
      << " longest_running_ms=" << longest_running_ms
      << " workers_alive=" << workers_alive;
  for (std::size_t i = 0; i < kNumPriorities; ++i) {
    oss << " served_" << priority_name(static_cast<RequestPriority>(i)) << '='
        << served[i];
  }
  oss << '\n';
  return oss.str();
}

std::string ServiceStats::to_json() const {
  std::ostringstream oss;
  oss << "{\"hits\":" << hits << ",\"misses\":" << misses
      << ",\"evictions\":" << evictions << ",\"compiles\":" << compiles
      << ",\"frame_builds\":" << frame_builds << ",\"completed\":" << completed
      << ",\"failed\":" << failed << ",\"queue_depth\":" << queue_depth
      << ",\"queue_peak\":" << queue_peak
      << ",\"rejected_expired\":" << rejected_expired
      << ",\"cancelled\":" << cancelled
      << ",\"rejected_queue_full\":" << rejected_queue_full
      << ",\"rejected_rate_limited\":" << rejected_rate_limited
      << ",\"rejected_draining\":" << rejected_draining
      << ",\"shots_in_flight\":" << shots_in_flight
      // Always zero: cross-request shot fusion is gone, but perfbench's
      // traced runs still require this key in `stats json=1`.
      << ",\"fused_requests\":0"
      << ",\"expired_running\":" << expired_running
      << ",\"exec_timeouts\":" << exec_timeouts << ",\"stalled\":" << stalled
      << ",\"worker_restarts\":" << worker_restarts
      << ",\"error_emit_failures\":" << error_emit_failures
      << ",\"longest_running_ms\":" << longest_running_ms
      << ",\"workers_alive\":" << workers_alive << ",\"served\":{";
  for (std::size_t i = 0; i < kNumPriorities; ++i) {
    oss << (i == 0 ? "\"" : ",\"")
        << priority_name(static_cast<RequestPriority>(i)) << "\":"
        << served[i];
  }
  oss << "}}\n";
  return oss.str();
}

std::string ServiceHealth::to_line() const {
  std::ostringstream oss;
  oss << "state=" << (accepting ? "accepting" : "draining")
      << " queue_depth=" << queue_depth
      << " queue_capacity=" << queue_capacity
      << " active_jobs=" << active_jobs
      << " shots_in_flight=" << shots_in_flight
      << " max_shots_in_flight=" << max_shots_in_flight
      << " longest_running_ms=" << longest_running_ms
      << " workers_alive=" << workers_alive << '\n';
  return oss.str();
}

std::string ServiceHealth::to_json() const {
  std::ostringstream oss;
  oss << "{\"state\":\"" << (accepting ? "accepting" : "draining")
      << "\",\"accepting\":" << (accepting ? "true" : "false")
      << ",\"queue_depth\":" << queue_depth
      << ",\"queue_capacity\":" << queue_capacity
      << ",\"active_jobs\":" << active_jobs
      << ",\"shots_in_flight\":" << shots_in_flight
      << ",\"max_shots_in_flight\":" << max_shots_in_flight
      << ",\"longest_running_ms\":" << longest_running_ms
      << ",\"workers_alive\":" << workers_alive << "}\n";
  return oss.str();
}

SamplingService::SamplingService(ServiceOptions options)
    : options_(std::move(options)), admission_(options_.admission) {
  SYMPHASE_CHECK(options_.num_workers >= 1);
  SYMPHASE_CHECK(options_.queue_capacity >= 1);
  SYMPHASE_CHECK(options_.session_cache_capacity >= 1);
  SYMPHASE_CHECK(options_.max_frame_payload >= 1);
  // The header's length field is u32; a larger per-frame cap would let
  // ship_buffer() cut slices encode_frame() cannot represent.
  SYMPHASE_CHECK(options_.max_frame_payload <= 0xffffffffu);
  SYMPHASE_CHECK(options_.registry_capacity >= 1);
  watchdog_ = std::thread([this] { watchdog_loop(); });
  workers_.reserve(options_.num_workers);
  for (std::size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

SamplingService::~SamplingService() { stop(); }

std::string SamplingService::register_circuit(std::string_view circuit_text) {
  Circuit circuit = parse_circuit(circuit_text);
  std::string digest = circuit_digest(circuit);
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  register_locked(digest, std::move(circuit));
  return digest;
}

void SamplingService::register_locked(const std::string& digest,
                                      Circuit circuit) {
  const auto existing = registry_.find(digest);
  if (existing != registry_.end()) {
    registry_lru_.splice(registry_lru_.begin(), registry_lru_,
                         existing->second.lru_position);
    return;
  }
  registry_lru_.push_front(digest);
  registry_.emplace(digest,
                    RegistryEntry{std::move(circuit), registry_lru_.begin()});
  while (registry_.size() > options_.registry_capacity) {
    registry_.erase(registry_lru_.back());
    registry_lru_.pop_back();
  }
}

std::uint64_t SamplingService::submit(std::uint64_t request_id,
                                      SampleRequest request, FrameFn emit,
                                      std::uint64_t client_id,
                                      ServiceError* rejection,
                                      const char* transport) {
  return submit_impl(request_id, std::move(request), std::move(emit),
                     client_id, rejection, transport, /*blocking=*/true);
}

std::uint64_t SamplingService::try_submit(std::uint64_t request_id,
                                          SampleRequest request, FrameFn emit,
                                          std::uint64_t client_id,
                                          ServiceError* rejection,
                                          const char* transport) {
  return submit_impl(request_id, std::move(request), std::move(emit),
                     client_id, rejection, transport, /*blocking=*/false);
}

std::uint64_t SamplingService::submit_impl(std::uint64_t request_id,
                                           SampleRequest request, FrameFn emit,
                                           std::uint64_t client_id,
                                           ServiceError* rejection,
                                           const char* transport,
                                           bool blocking) {
  SYMPHASE_CHECK_MSG(request.verb == RequestVerb::kSample ||
                         request.verb == RequestVerb::kDetect,
                     "submit() only takes sample/detect requests");
  SYMPHASE_CHECK(emit != nullptr);
  Job job;
  job.request_id = request_id;
  // The deadline budget starts at acceptance, before any queue wait —
  // time spent blocked on a full queue counts against it.
  if (request.deadline_ms != 0) {
    job.deadline = SchedulerClock::now() +
                   std::chrono::milliseconds(request.deadline_ms);
  }
  job.cancel_flag = std::make_shared<std::atomic<bool>>(false);
  job.abort_reason = std::make_shared<std::atomic<std::uint32_t>>(kAbortNone);
  job.progress = std::make_shared<std::atomic<std::uint64_t>>(0);
  job.shots = request.task.shots;
  job.transport = transport;
  job.request = std::move(request);
  job.emit = std::move(emit);

  std::unique_lock<std::mutex> lock(queue_mutex_);
  if (blocking) {
    // Queue capacity and the shots cap are backpressure for blocking
    // submitters; draining wakes them so they learn they were turned
    // away instead of waiting on a server that will never accept.
    queue_space_.wait(lock, [this, &job] {
      return stopping_ || draining_ ||
             (queue_.size() < options_.queue_capacity &&
              admission_.fits_in_flight(job.shots));
    });
  }
  SYMPHASE_CHECK_MSG(!stopping_, "service is stopped");
  ServiceError error;
  bool rejected = false;
  if (draining_) {
    error = make_error(ErrorCode::kDraining,
                       "service is draining; no new requests accepted");
    rejected = true;
  } else {
    AdmissionDecision decision = admission_.admit(
        client_id, job.shots, job.request.priority, queue_.size(),
        options_.queue_capacity,
        /*enforce_queue_limits=*/!blocking, SchedulerClock::now());
    if (!decision.admitted) {
      error = std::move(decision.error);
      rejected = true;
    }
  }
  if (rejected) {
    lock.unlock();
    account_rejection(error.code);
    if (rejection != nullptr) {
      *rejection = std::move(error);
    }
    return 0;
  }
  const std::uint64_t ticket = next_ticket_++;
  job.ticket = ticket;
  // Acceptance mark: the queue stage (and the request's total) starts
  // here, after admission said yes and a ticket exists to correlate on.
  job.accept_ns = trace::now_ns();
  trace::instant("accept", job.request_id, ticket);
  cancel_flags_.emplace(ticket, job.cancel_flag);
  DeadlineQueue<Job>::Item item;
  item.ticket = ticket;
  item.priority = job.request.priority;
  item.deadline = job.deadline;
  item.payload = std::move(job);
  queue_.push(std::move(item));
  queue_peak_ = std::max<std::uint64_t>(queue_peak_, queue_.size());
  queue_work_.notify_one();
  return ticket;
}

bool SamplingService::cancel(std::uint64_t ticket) {
  DeadlineQueue<Job>::Item item;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    const auto flag = cancel_flags_.find(ticket);
    if (flag == cancel_flags_.end()) {
      return false;
    }
    if (!queue_.remove(ticket, &item)) {
      // In flight: flip the flag, the worker finishes the bookkeeping.
      // A second cancel of the same ticket reports false — the first
      // one already claimed it.
      return !flag->second->exchange(true);
    }
    cancel_flags_.erase(flag);
    admission_.release(item.payload.shots);
    // The request leaves the queue but stays *active* until its error
    // frame has shipped: signaling quiescence from inside the lock and
    // emitting afterwards let a concurrent begin_drain(); drain();
    // stop() sequence tear the transport down mid-emit. drain() only
    // observes idle after the frame is out.
    ++active_jobs_;
    queue_space_.notify_all();
  }
  // Dequeued before it ever ran: answer it here, from the canceller's
  // thread (FrameFn implementations are thread-safe by contract).
  finish_without_running(item.payload, Outcome::kCancelled,
                         make_error(ErrorCode::kCancelled, "request cancelled"));
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    --active_jobs_;
    if (queue_.empty() && active_jobs_ == 0) {
      queue_idle_.notify_all();
    }
  }
  return true;
}

void SamplingService::drain() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  queue_idle_.wait(lock,
                   [this] { return queue_.empty() && active_jobs_ == 0; });
}

void SamplingService::begin_drain() {
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  draining_ = true;
  // Blocking submitters parked on backpressure must wake to learn the
  // service stopped accepting — their space will never come.
  queue_space_.notify_all();
}

bool SamplingService::draining() const {
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  return draining_ || stopping_;
}

ServiceHealth SamplingService::health() const {
  ServiceHealth h;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    h.accepting = !draining_ && !stopping_;
    h.queue_depth = queue_.size();
    h.queue_capacity = options_.queue_capacity;
    h.active_jobs = active_jobs_;
    h.shots_in_flight = admission_.shots_in_flight();
    h.max_shots_in_flight = options_.admission.max_shots_in_flight;
  }
  h.longest_running_ms = longest_running_ms();
  h.workers_alive = workers_alive_.load(std::memory_order_relaxed);
  return h;
}

void SamplingService::stop() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_ && workers_.empty()) {
      return;
    }
    stopping_ = true;
    queue_work_.notify_all();
    queue_space_.notify_all();
  }
  // Join in batches under the lock: a crashed worker may still be
  // swapping its replacement into workers_ while we drain the vector.
  // stopping_ stops further respawns, so this converges.
  std::vector<std::thread> to_join;
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      if (workers_.empty()) {
        break;
      }
      to_join.swap(workers_);
    }
    for (std::thread& worker : to_join) {
      if (worker.joinable()) {
        worker.join();
      }
    }
    to_join.clear();
  }
  {
    const std::lock_guard<std::mutex> lock(watch_mutex_);
    watch_stop_ = true;
    ++watch_epoch_;
  }
  watch_cv_.notify_all();
  if (watchdog_.joinable()) {
    watchdog_.join();
  }
}

void SamplingService::clear_sessions() {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  for (const auto& [digest, entry] : cache_) {
    retire_artifacts(*entry.session);
    ++evictions_;
  }
  cache_.clear();
  lru_.clear();
}

ServiceStats SamplingService::stats() const {
  ServiceStats s;
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.compiles = retired_compiles_;
    s.frame_builds = retired_frame_builds_;
    for (const auto& [digest, entry] : cache_) {
      const SessionArtifacts artifacts = entry.session->artifacts();
      s.compiles += artifacts.compiled;
      s.frame_builds += artifacts.frames;
    }
    s.completed = completed_;
    s.failed = failed_;
    s.rejected_expired = rejected_expired_;
    s.cancelled = cancelled_;
    s.expired_running = expired_running_;
    s.rejected_queue_full = rejected_queue_full_;
    s.rejected_rate_limited = rejected_rate_limited_;
    s.rejected_draining = rejected_draining_;
    for (std::size_t i = 0; i < kNumPriorities; ++i) {
      s.served[i] = served_[i];
    }
  }
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    s.queue_depth = queue_.size();
    s.queue_peak = queue_peak_;
    s.shots_in_flight = admission_.shots_in_flight();
  }
  s.exec_timeouts = exec_timeouts_.load(std::memory_order_relaxed);
  s.stalled = stalled_.load(std::memory_order_relaxed);
  s.worker_restarts = worker_restarts_.load(std::memory_order_relaxed);
  s.error_emit_failures =
      error_emit_failures_.load(std::memory_order_relaxed);
  s.longest_running_ms = longest_running_ms();
  s.workers_alive = workers_alive_.load(std::memory_order_relaxed);
  return s;
}

void SamplingService::retire_artifacts(const SimulatorSession& session) {
  // Snapshot at retirement: a request still holding the evicted session
  // and compiling concurrently is counted a frame late (or not at all if
  // the service is destroyed first) — an accounting race accepted for
  // not keeping evicted sessions alive.
  const SessionArtifacts artifacts = session.artifacts();
  retired_compiles_ += artifacts.compiled;
  retired_frame_builds_ += artifacts.frames;
}

std::shared_ptr<SimulatorSession> SamplingService::session_for(
    const std::string& digest) {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto hit = cache_.find(digest);
  if (hit != cache_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, hit->second.lru_position);
    return hit->second.session;
  }
  const auto registered = registry_.find(digest);
  SYMPHASE_CHECK_MSG(registered != registry_.end(),
                     "unknown circuit digest " << digest);
  registry_lru_.splice(registry_lru_.begin(), registry_lru_,
                       registered->second.lru_position);
  ++misses_;
  // Construction is cheap — compilation stays deferred until the worker
  // actually samples, outside the cache lock, guarded by the session's
  // own build mutex (so same-digest racers still compile once).
  auto session =
      std::make_shared<SimulatorSession>(registered->second.circuit);
  lru_.push_front(digest);
  cache_.emplace(digest, CacheEntry{session, lru_.begin()});
  while (cache_.size() > options_.session_cache_capacity) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    const auto it = cache_.find(victim);
    retire_artifacts(*it->second.session);
    cache_.erase(it);
    ++evictions_;
  }
  return session;
}

void SamplingService::worker_loop(std::size_t worker_index) {
  workers_alive_.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_work_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        workers_alive_.fetch_sub(1, std::memory_order_relaxed);
        return;  // stopping_ and drained
      }
      job = std::move(queue_.pop().payload);
      ++active_jobs_;
      // Every blocked submitter rechecks: each waits on its own shot
      // budget as well as on queue space.
      queue_space_.notify_all();
    }
    // Claim mark: the queue stage ends now.
    job.claim_ns = trace::now_ns();
    trace::span("queue", job.accept_ns, job.claim_ns, job.request_id,
                job.ticket);
    register_running(job, worker_index);
    // Supervision: process() handles every per-job failure, so an
    // exception reaching this frame means the worker itself broke (in
    // practice: the injected worker_fault_hook). Fail the claimed job
    // with `internal` — it has not streamed yet when the hook throws —
    // then fall through to the normal cleanup and respawn.
    bool crashed = false;
    std::string crash_reason;
    try {
      if (options_.worker_fault_hook) {
        options_.worker_fault_hook(worker_index);
      }
      process(job);
    } catch (const std::exception& e) {
      crashed = true;
      crash_reason = e.what();
    } catch (...) {
      crashed = true;
      crash_reason = "unknown exception";
    }
    if (crashed) {
      emit_error_frame(job, /*chunk_index=*/0,
                       make_error(ErrorCode::kInternal,
                                  "worker crashed: " + crash_reason));
      account(Outcome::kFailed, job.request.priority);
      finish_timing(job, /*compile_done_ns=*/0, /*emit_ns=*/0,
                    /*end_ns=*/0, /*ok=*/false);
    }
    unregister_running(job);
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      cancel_flags_.erase(job.ticket);
      admission_.release(job.shots);
      --active_jobs_;
      // Finished work frees shot budget too, not just a queue slot —
      // submitters may be waiting on either.
      queue_space_.notify_all();
      if (queue_.empty() && active_jobs_ == 0) {
        queue_idle_.notify_all();
      }
    }
    if (crashed) {
      worker_restarts_.fetch_add(1, std::memory_order_relaxed);
      {
        std::ostringstream oss;
        oss << "{\"event\":\"worker_restart\",\"worker\":" << worker_index
            << ",\"reason\":\"" << crash_reason << "\"}";
        watchdog_emit(oss.str());
      }
      // Respawn: swap this thread's own handle in workers_ for the
      // replacement (detaching self — this frame returns immediately),
      // so stop() joins exactly the live threads and the vector never
      // grows. Under stopping_ the pool is winding down anyway.
      {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        if (!stopping_) {
          const std::thread::id self = std::this_thread::get_id();
          for (std::thread& worker : workers_) {
            if (worker.get_id() == self) {
              worker.detach();
              try {
                worker = std::thread(
                    [this, worker_index] { worker_loop(worker_index); });
              } catch (...) {
                // Thread creation failed; the pool runs one short.
              }
              break;
            }
          }
        }
        // Decremented under the lock: once detached, this thread must
        // not touch members after unlocking — stop() serializes on the
        // same mutex before the service is destroyed.
        workers_alive_.fetch_sub(1, std::memory_order_relaxed);
      }
      return;
    }
  }
}

void SamplingService::register_running(const Job& job,
                                       std::size_t worker_index) {
  const SchedulerClock::time_point now = SchedulerClock::now();
  RunWatch watch;
  watch.request_id = job.request_id;
  watch.worker = worker_index;
  watch.start = now;
  watch.deadline = job.deadline;
  if (options_.exec_timeout_ms != 0) {
    watch.exec_deadline =
        now + std::chrono::milliseconds(options_.exec_timeout_ms);
  }
  watch.cancel_flag = job.cancel_flag;
  watch.abort_reason = job.abort_reason;
  watch.progress = job.progress;
  watch.progress_time = now;
  {
    const std::lock_guard<std::mutex> lock(watch_mutex_);
    running_.emplace(job.ticket, std::move(watch));
    ++watch_epoch_;
  }
  watch_cv_.notify_all();
}

void SamplingService::unregister_running(const Job& job) {
  const std::lock_guard<std::mutex> lock(watch_mutex_);
  running_.erase(job.ticket);
  ++watch_epoch_;
}

std::uint64_t SamplingService::longest_running_ms() const {
  const SchedulerClock::time_point now = SchedulerClock::now();
  const std::lock_guard<std::mutex> lock(watch_mutex_);
  std::uint64_t longest = 0;
  for (const auto& [ticket, watch] : running_) {
    longest = std::max(longest, ms_between(watch.start, now));
  }
  return longest;
}

void SamplingService::watchdog_emit(const std::string& line) const {
  if (options_.watchdog_log) {
    options_.watchdog_log(line);
    return;
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

void SamplingService::watchdog_loop() {
  std::unique_lock<std::mutex> lock(watch_mutex_);
  while (!watch_stop_) {
    const SchedulerClock::time_point now = SchedulerClock::now();
    SchedulerClock::time_point next_event = kNoDeadline;
    std::vector<std::string> events;
    for (auto& [ticket, watch] : running_) {
      // Observe the heartbeat first: a chunk that landed since the last
      // sweep resets the stall clock (and clears a standing flag, so a
      // run that stalls repeatedly is counted each time).
      const std::uint64_t chunks =
          watch.progress->load(std::memory_order_relaxed);
      if (chunks != watch.seen_progress) {
        watch.seen_progress = chunks;
        watch.progress_time = now;
        watch.stall_flagged = false;
      }
      if (!watch.aborted) {
        // Enforcement: the earlier of the request's own deadline and
        // the service-wide exec cap. The reason is stored before the
        // cancel flag flips, so the worker that unwinds on the flag
        // reads why. If a client cancel claimed the flag first, the
        // reason still wins the outcome — the deadline genuinely
        // passed, and both are terminal error frames.
        SchedulerClock::time_point cut = watch.deadline;
        std::uint32_t reason = kAbortDeadline;
        if (watch.exec_deadline < cut) {
          cut = watch.exec_deadline;
          reason = kAbortExecTimeout;
        }
        if (cut != kNoDeadline) {
          if (cut <= now) {
            watch.abort_reason->store(reason, std::memory_order_release);
            watch.cancel_flag->exchange(true);
            watch.aborted = true;
            if (reason == kAbortExecTimeout) {
              exec_timeouts_.fetch_add(1, std::memory_order_relaxed);
            }
            const char* event = reason == kAbortExecTimeout
                                    ? "exec_timeout"
                                    : "deadline_expired";
            trace::instant(event, watch.request_id, ticket);
            std::ostringstream oss;
            oss << "{\"event\":\"" << event << "\",\"id\":" << watch.request_id
                << ",\"ticket\":" << ticket << ",\"worker\":" << watch.worker
                << ",\"running_ms\":" << ms_between(watch.start, now) << "}";
            events.push_back(oss.str());
          } else {
            next_event = std::min(next_event, cut);
          }
        }
      }
      if (options_.stall_warn_ms != 0 && !watch.aborted &&
          !watch.stall_flagged) {
        const SchedulerClock::time_point stall_at =
            watch.progress_time +
            std::chrono::milliseconds(options_.stall_warn_ms);
        if (stall_at <= now) {
          watch.stall_flagged = true;
          stalled_.fetch_add(1, std::memory_order_relaxed);
          trace::instant("stall", watch.request_id, ticket, /*aux=*/chunks);
          std::ostringstream oss;
          oss << "{\"event\":\"stall\",\"id\":" << watch.request_id
              << ",\"ticket\":" << ticket << ",\"worker\":" << watch.worker
              << ",\"running_ms\":" << ms_between(watch.start, now)
              << ",\"no_progress_ms\":" << ms_between(watch.progress_time, now)
              << ",\"chunks\":" << chunks << "}";
          events.push_back(oss.str());
        } else {
          next_event = std::min(next_event, stall_at);
        }
      }
    }
    if (!events.empty()) {
      // Log sinks run unlocked (they may call back into stats()).
      lock.unlock();
      for (const std::string& line : events) {
        watchdog_emit(line);
      }
      lock.lock();
      continue;  // running_ may have changed while unlocked
    }
    // Sleep until the next enforcement moment, or until the registry
    // changes — the epoch predicate makes a notify between scan and
    // wait impossible to miss.
    const std::uint64_t epoch = watch_epoch_;
    const auto changed = [this, epoch] {
      return watch_stop_ || watch_epoch_ != epoch;
    };
    if (next_event == kNoDeadline) {
      watch_cv_.wait(lock, changed);
    } else {
      watch_cv_.wait_until(lock, next_event, changed);
    }
  }
}

void SamplingService::account(Outcome outcome, RequestPriority priority) {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  switch (outcome) {
    case Outcome::kCompleted:
      ++completed_;
      ++served_[static_cast<std::size_t>(priority)];
      break;
    case Outcome::kFailed:
      ++failed_;
      break;
    case Outcome::kExpired:
      ++rejected_expired_;
      break;
    case Outcome::kCancelled:
      ++cancelled_;
      break;
    case Outcome::kExpiredRunning:
      ++expired_running_;
      break;
  }
}

void SamplingService::account_rejection(ErrorCode code) {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  switch (code) {
    case ErrorCode::kRateLimited:
      ++rejected_rate_limited_;
      break;
    case ErrorCode::kDraining:
      ++rejected_draining_;
      break;
    default:
      ++rejected_queue_full_;
      break;
  }
}

void SamplingService::emit_error_frame(const Job& job,
                                       std::uint32_t chunk_index,
                                       const ServiceError& error) {
  try {
    const std::string payload = encode_error_payload(error);
    FrameHeader header;
    header.request_id = job.request_id;
    header.chunk_index = chunk_index;
    header.flags = kFrameLast | kFrameError;
    header.payload_bytes = static_cast<std::uint32_t>(payload.size());
    job.emit(header, payload);
  } catch (...) {
    // The emitter itself failed (e.g. a closed client stream); the
    // request is still accounted, there is nobody left to tell — but
    // the drop is observable (stats + Prometheus) instead of silent.
    error_emit_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SamplingService::finish_without_running(Job& job, Outcome outcome,
                                             const ServiceError& error) {
  emit_error_frame(job, /*chunk_index=*/0, error);
  account(outcome, job.request.priority);
  finish_timing(job, /*compile_done_ns=*/0, /*emit_ns=*/0, /*end_ns=*/0,
                /*ok=*/false);
}

void SamplingService::finish_timing(const Job& job,
                                    std::uint64_t compile_done_ns,
                                    std::uint64_t emit_ns,
                                    std::uint64_t end_ns, bool ok) const {
  if (end_ns == 0) {
    // The stream never shipped a final frame (pre-run rejection,
    // error, cancellation): the request still ends now.
    end_ns = trace::now_ns();
  }
  const StageBreakdown s = stage_breakdown(job.accept_ns, job.claim_ns,
                                           compile_done_ns, emit_ns, end_ns);
  if (compile_done_ns != 0) {
    // The post-compile window as one span; per-chunk emit spans overlay
    // it on the same thread track.
    trace::span("execute", compile_done_ns, end_ns, job.request_id,
                job.ticket);
  }
  trace::instant(ok ? "done" : "aborted", job.request_id, job.ticket);
  if (options_.timing_observer) {
    RequestTiming t;
    t.request_id = job.request_id;
    t.ticket = job.ticket;
    t.transport = job.transport;
    t.queue_s = static_cast<double>(s.queue_ns) * 1e-9;
    t.compile_s = static_cast<double>(s.compile_ns) * 1e-9;
    t.execute_s = static_cast<double>(s.execute_ns) * 1e-9;
    t.emit_s = static_cast<double>(s.emit_ns) * 1e-9;
    t.total_s = static_cast<double>(s.total_ns) * 1e-9;
    t.ok = ok;
    options_.timing_observer(t);
  }
  if (options_.slow_request_ms != 0 &&
      s.total_ns >= options_.slow_request_ms * 1'000'000ull) {
    std::ostringstream oss;
    oss << "{\"event\":\"slow_request\",\"id\":" << job.request_id
        << ",\"ticket\":" << job.ticket << ",\"transport\":\"" << job.transport
        << "\",\"ok\":" << (ok ? "true" : "false") << ",\"queue_ms\":";
    append_ms(oss, s.queue_ns);
    oss << ",\"compile_ms\":";
    append_ms(oss, s.compile_ns);
    oss << ",\"execute_ms\":";
    append_ms(oss, s.execute_ns);
    oss << ",\"emit_ms\":";
    append_ms(oss, s.emit_ns);
    oss << ",\"total_ms\":";
    append_ms(oss, s.total_ns);
    oss << "}";
    watchdog_emit(oss.str());
  }
}

void SamplingService::process(Job& job) {
  // Admission gate: the deadline is checked when a worker takes the
  // request — whether it expired while queued or in the instant after
  // the pop, it is rejected before any compilation or sampling.
  if (job.deadline != kNoDeadline && SchedulerClock::now() > job.deadline) {
    finish_without_running(
        job, Outcome::kExpired,
        make_error(ErrorCode::kDeadlineExpired,
                   "deadline expired before sampling started"));
    return;
  }
  if (job.cancel_flag->load(std::memory_order_relaxed)) {
    // The flag is usually a client cancel, but the watchdog can have
    // cut the run already (an exec cap shorter than the gate-to-run
    // window); its stored reason, written before the flag, decides.
    const std::uint32_t abort =
        job.abort_reason->load(std::memory_order_acquire);
    if (abort != kAbortNone) {
      finish_without_running(
          job, Outcome::kExpiredRunning,
          make_error(ErrorCode::kDeadlineExpired,
                     abort == kAbortExecTimeout
                         ? "execution wall-clock cap exceeded"
                         : "deadline expired during execution"));
    } else {
      finish_without_running(job, Outcome::kCancelled,
                             make_error(ErrorCode::kCancelled,
                                        "request cancelled"));
    }
    return;
  }
  FrameSink sink(job.request_id, job.request.format,
                 options_.max_frame_payload, job.emit, job.progress.get(),
                 job.ticket, job.request.want_timing);
  Outcome outcome = Outcome::kCompleted;
  // When the compile stage finished (steady ns); stays 0 when the fault
  // hook, session lookup or artifact construction threw — the timing
  // then reports zero compile/execute and finish_timing supplies
  // end-now.
  std::uint64_t compile_done_ns = 0;
  try {
    if (options_.fault_hook) {
      options_.fault_hook(
          fault_sequence_.fetch_add(1, std::memory_order_relaxed) + 1,
          job.request);
    }
    std::string digest = job.request.digest;
    if (digest.empty()) {
      digest = register_circuit(job.request.circuit_text);
    }
    const std::shared_ptr<SimulatorSession> session = session_for(digest);
    // Compile bracket: force the artifacts the task needs here, so the
    // stage is measured apart from execution. A cache-hit session makes
    // this a mutex acquire + pointer checks (the span's aux=1 marks it
    // warm).
    const std::uint64_t compile_t0 = trace::now_ns();
    const SessionArtifacts pre = session->artifacts();
    const bool warm = pre.compiled || pre.frames;
    session->prepare(job.request.task);
    compile_done_ns = trace::now_ns();
    trace::span("compile", compile_t0, compile_done_ns, job.request_id,
                job.ticket, /*aux=*/warm ? 1 : 0);
    sink.set_timing_marks(job.accept_ns, job.claim_ns, compile_done_ns);
    session->run(job.request.task, sink, job.cancel_flag.get(),
                 job.request_id, job.ticket);
  } catch (const TaskCancelled& e) {
    // The abandoned stream's session stays cached and reusable; only
    // this request's frames stop (with the error flag, like any other
    // non-success). When the watchdog flipped the flag — not a client —
    // the request ends as a mid-run deadline_expired.
    const std::uint32_t abort =
        job.abort_reason->load(std::memory_order_acquire);
    if (abort != kAbortNone) {
      outcome = Outcome::kExpiredRunning;
      emit_error_frame(
          job, sink.next_chunk_index(),
          make_error(ErrorCode::kDeadlineExpired,
                     abort == kAbortExecTimeout
                         ? "execution wall-clock cap exceeded mid-run"
                         : "deadline expired mid-run"));
    } else {
      outcome = Outcome::kCancelled;
      emit_error_frame(job, sink.next_chunk_index(),
                       make_error(ErrorCode::kCancelled, e.what()));
    }
  } catch (const std::invalid_argument& e) {
    // Caller-data failures (circuit parse errors, unknown digests,
    // malformed tasks — everything SYMPHASE_CHECK rejects): the same
    // request will fail the same way forever, so it must not read as
    // a server-side problem to a retrying client.
    outcome = Outcome::kFailed;
    emit_error_frame(job, sink.next_chunk_index(),
                     make_error(ErrorCode::kBadCircuit, e.what()));
  } catch (const std::exception& e) {
    outcome = Outcome::kFailed;
    emit_error_frame(job, sink.next_chunk_index(),
                     make_error(ErrorCode::kInternal, e.what()));
  }
  account(outcome, job.request.priority);
  finish_timing(job, compile_done_ns, sink.emit_ns(), sink.end_ns(),
                outcome == Outcome::kCompleted);
}

}  // namespace symphase
