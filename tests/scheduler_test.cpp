// Scheduler semantics of the sampling service (src/service/scheduler.hpp
// + the SamplingService integration): priority/deadline/FIFO ordering of
// the indexed heap, deadline-expired rejection before any compilation,
// priority jumps under a saturated single-worker pool, cooperative
// cancellation (queued and mid-stream) leaving the session cache
// reusable, drain() waiting for a queue-cancelled request's error
// frame, and the queue metrics surfaced through stats().

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "circuit/parser.hpp"
#include "sampler/sample_writer.hpp"
#include "service/request.hpp"
#include "service/scheduler.hpp"
#include "service/service.hpp"
#include "service/wire.hpp"

namespace symphase {
namespace {

constexpr const char* kCircuitA = "H 0\nCNOT 0 1\nX_ERROR(0.1) 0 1\nM 0 1\n";
constexpr const char* kCircuitB = "X 0\nM 0 1 2\n";

using Clock = SchedulerClock;

std::string direct_output(const std::string& circuit_text,
                          const SampleTask& task, SampleFormat format) {
  const SimulatorSession session(parse_circuit(circuit_text));
  std::ostringstream oss;
  WriterSink sink(oss, format);
  session.run(task, sink);
  return oss.str();
}

// ---------------------------------------------------------------------------
// DeadlineQueue unit semantics.

TEST(DeadlineQueue, OrdersByPriorityThenDeadlineThenArrival) {
  DeadlineQueue<int> queue;
  const auto now = Clock::now();
  using Item = DeadlineQueue<int>::Item;
  // Arrival order deliberately scrambled relative to urgency.
  queue.push(Item{1, RequestPriority::kLow, kNoDeadline, 10});
  queue.push(Item{2, RequestPriority::kNormal, kNoDeadline, 20});
  queue.push(Item{3, RequestPriority::kNormal,
                  now + std::chrono::milliseconds(500), 30});
  queue.push(Item{4, RequestPriority::kHigh, kNoDeadline, 40});
  queue.push(Item{5, RequestPriority::kNormal,
                  now + std::chrono::milliseconds(100), 50});
  queue.push(Item{6, RequestPriority::kNormal, kNoDeadline, 60});

  std::vector<std::uint64_t> order;
  while (!queue.empty()) {
    order.push_back(queue.pop().ticket);
  }
  // High first; then normal by earliest deadline (5 before 3), then
  // no-deadline normals FIFO (2 before 6); low last.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{4, 5, 3, 2, 6, 1}));
}

TEST(DeadlineQueue, RemoveByTicketKeepsHeapConsistent) {
  DeadlineQueue<int> queue;
  using Item = DeadlineQueue<int>::Item;
  for (std::uint64_t t = 1; t <= 9; ++t) {
    const auto priority = static_cast<RequestPriority>(t % 3);
    queue.push(Item{t, priority, kNoDeadline, static_cast<int>(t)});
  }
  Item removed;
  EXPECT_TRUE(queue.remove(5, &removed));
  EXPECT_EQ(removed.ticket, 5u);
  EXPECT_EQ(removed.payload, 5);
  EXPECT_FALSE(queue.remove(5));   // already gone
  EXPECT_FALSE(queue.remove(99));  // never existed
  EXPECT_EQ(queue.size(), 8u);

  std::vector<std::uint64_t> order;
  while (!queue.empty()) {
    order.push_back(queue.pop().ticket);
  }
  // Priority classes: high = tickets 3,6,9; normal = 1,4,7; low = 2,8
  // (5 removed); FIFO inside each class.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{3, 6, 9, 1, 4, 7, 2, 8}));
}

TEST(DeadlineQueue, DuplicateTicketIsRejected) {
  DeadlineQueue<int> queue;
  using Item = DeadlineQueue<int>::Item;
  queue.push(Item{7, RequestPriority::kNormal, kNoDeadline, 0});
  EXPECT_THROW(queue.push(Item{7, RequestPriority::kLow, kNoDeadline, 1}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Request codec: the new scheduling fields.

TEST(DeadlineQueue, RemoveRootTailAndSoleElementKeepHeapConsistent) {
  using Item = DeadlineQueue<int>::Item;
  {
    // Removing the root (most urgent) must re-heapify, not just swap.
    DeadlineQueue<int> queue;
    queue.push(Item{1, RequestPriority::kHigh, kNoDeadline, 0});
    queue.push(Item{2, RequestPriority::kLow, kNoDeadline, 0});
    queue.push(Item{3, RequestPriority::kNormal, kNoDeadline, 0});
    queue.push(Item{4, RequestPriority::kHigh, kNoDeadline, 0});
    EXPECT_TRUE(queue.remove(1));
    std::vector<std::uint64_t> order;
    while (!queue.empty()) {
      order.push_back(queue.pop().ticket);
    }
    EXPECT_EQ(order, (std::vector<std::uint64_t>{4, 3, 2}));
  }
  {
    // Removing the physical tail slot must not sift a stale index.
    DeadlineQueue<int> queue;
    queue.push(Item{1, RequestPriority::kHigh, kNoDeadline, 0});
    queue.push(Item{2, RequestPriority::kNormal, kNoDeadline, 0});
    queue.push(Item{3, RequestPriority::kLow, kNoDeadline, 0});
    EXPECT_TRUE(queue.remove(3));
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.pop().ticket, 1u);
    EXPECT_EQ(queue.pop().ticket, 2u);
  }
  {
    // Removing the only element leaves a reusable empty queue.
    DeadlineQueue<int> queue;
    queue.push(Item{7, RequestPriority::kNormal, kNoDeadline, 0});
    EXPECT_TRUE(queue.remove(7));
    EXPECT_TRUE(queue.empty());
    queue.push(Item{8, RequestPriority::kNormal, kNoDeadline, 0});
    EXPECT_EQ(queue.pop().ticket, 8u);
  }
}

TEST(RequestCodec, PriorityDeadlineAndCancelRoundTrip) {
  SampleRequest request = SampleRequest::sample(kCircuitA, 123);
  request.priority = RequestPriority::kHigh;
  request.deadline_ms = 250;
  const SampleRequest parsed =
      parse_request_payload(encode_request_payload(request));
  EXPECT_EQ(parsed.priority, RequestPriority::kHigh);
  EXPECT_EQ(parsed.deadline_ms, 250u);

  SampleRequest cancel;
  cancel.verb = RequestVerb::kCancel;
  cancel.cancel_id = 42;
  const SampleRequest cancel_parsed =
      parse_request_payload(encode_request_payload(cancel));
  EXPECT_EQ(cancel_parsed.verb, RequestVerb::kCancel);
  EXPECT_EQ(cancel_parsed.cancel_id, 42u);

  // Defaults round-trip without emitting the options at all.
  const std::string plain =
      encode_request_payload(SampleRequest::sample(kCircuitB, 5));
  EXPECT_EQ(plain.find("priority="), std::string::npos);
  EXPECT_EQ(plain.find("deadline_ms="), std::string::npos);

  for (const char* bad : {
           "sample priority=urgent\nM 0\n",  // unknown class
           "sample deadline_ms=soon\nM 0\n", // bad number
           "cancel\n",                       // missing id
           "cancel id=0\n",                  // reserved id
           "cancel id=1 shots=5\n",          // foreign option
           "cancel id=1\nM 0\n",             // trailing circuit text
       }) {
    EXPECT_THROW(parse_request_payload(bad), std::invalid_argument) << bad;
  }
}

// ---------------------------------------------------------------------------
// Service-level scheduling. The harness saturates a single worker with a
// "blocker" request whose first emitted frame parks on a latch, so
// everything submitted afterwards is provably queued before the
// scheduler makes its next decision.

class Latch {
 public:
  void release() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return released_; });
  }
  /// Blocks until someone is waiting (so tests know the blocker runs).
  void wait_for_waiter() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return waiting_; });
  }
  void mark_waiting() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      waiting_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool released_ = false;
  bool waiting_ = false;
};

/// Emit fn that records the order in which requests finish.
class CompletionRecorder {
 public:
  FrameFn fn(std::uint64_t id) {
    return [this, id](const FrameHeader& header, std::string_view payload) {
      if ((header.flags & kFrameLast) != 0) {
        const std::lock_guard<std::mutex> lock(mutex_);
        order_.push_back(id);
        errors_.push_back((header.flags & kFrameError) != 0
                              ? std::string(payload)
                              : std::string());
      }
    };
  }
  std::vector<std::uint64_t> order() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return order_;
  }
  std::string error_for(std::uint64_t id) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < order_.size(); ++i) {
      if (order_[i] == id) {
        return errors_[i];
      }
    }
    return "<never finished>";
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::uint64_t> order_;
  std::vector<std::string> errors_;
};

/// Submits a blocker request to a 1-worker service: its first frame
/// parks until latch.release(). Returns once the worker is provably
/// inside the blocker (so later submits are queued behind it).
std::uint64_t submit_blocker(SamplingService& service, Latch& latch,
                             CompletionRecorder& recorder) {
  SampleRequest blocker = SampleRequest::sample(kCircuitB, 100);
  // One-shot park on the first emitted frame (owned by the lambda).
  auto first = std::make_shared<std::atomic<bool>>(true);
  const FrameFn record = recorder.fn(1);
  const std::uint64_t ticket = service.submit(
      1, blocker,
      [&latch, first, record](const FrameHeader& header,
                              std::string_view payload) {
        if (first->exchange(false)) {
          latch.mark_waiting();
          latch.wait();
        }
        record(header, payload);
      });
  latch.wait_for_waiter();
  return ticket;
}

TEST(SchedulerService, HighPriorityLateArrivalOvertakesEarlierLowPriority) {
  SamplingService service({.num_workers = 1});
  Latch latch;
  CompletionRecorder recorder;
  submit_blocker(service, latch, recorder);

  // Two low-priority requests, then a high-priority late arrival — the
  // ISSUE's acceptance ordering.
  SampleRequest low = SampleRequest::sample(kCircuitA, 200);
  low.priority = RequestPriority::kLow;
  SampleRequest high = SampleRequest::sample(kCircuitB, 200);
  high.priority = RequestPriority::kHigh;
  service.submit(2, low, recorder.fn(2));
  service.submit(3, low, recorder.fn(3));
  service.submit(4, high, recorder.fn(4));

  latch.release();
  service.drain();
  EXPECT_EQ(recorder.order(), (std::vector<std::uint64_t>{1, 4, 2, 3}));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.served[static_cast<std::size_t>(RequestPriority::kHigh)],
            1u);
  EXPECT_EQ(stats.served[static_cast<std::size_t>(RequestPriority::kNormal)],
            1u);  // the blocker
  EXPECT_EQ(stats.served[static_cast<std::size_t>(RequestPriority::kLow)],
            2u);
  EXPECT_EQ(stats.queue_peak, 3u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(SchedulerService, EarliestDeadlineFirstWithinAPriorityClass) {
  SamplingService service({.num_workers = 1});
  Latch latch;
  CompletionRecorder recorder;
  submit_blocker(service, latch, recorder);

  SampleRequest relaxed = SampleRequest::sample(kCircuitA, 100);
  relaxed.deadline_ms = 60'000;
  SampleRequest urgent = SampleRequest::sample(kCircuitA, 100);
  urgent.deadline_ms = 30'000;
  SampleRequest none = SampleRequest::sample(kCircuitA, 100);
  service.submit(2, none, recorder.fn(2));
  service.submit(3, relaxed, recorder.fn(3));
  service.submit(4, urgent, recorder.fn(4));

  latch.release();
  service.drain();
  // EDF within the class; no-deadline requests run after any deadline.
  EXPECT_EQ(recorder.order(), (std::vector<std::uint64_t>{1, 4, 3, 2}));
}

TEST(SchedulerService, DeadlineExpiredInQueueIsRejectedWithoutCompiling) {
  SamplingService service({.num_workers = 1});
  Latch latch;
  CompletionRecorder recorder;
  submit_blocker(service, latch, recorder);

  // kCircuitA is never otherwise submitted: its compile count pins that
  // the rejected request did no work.
  SampleRequest doomed = SampleRequest::sample(kCircuitA, 100);
  doomed.deadline_ms = 1;
  service.submit(2, doomed, recorder.fn(2));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  latch.release();
  service.drain();

  const std::string error = recorder.error_for(2);
  EXPECT_NE(error.find("deadline expired"), std::string::npos) << error;
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected_expired, 1u) << stats.to_line();
  EXPECT_EQ(stats.completed, 1u) << stats.to_line();  // just the blocker
  // Only the blocker's circuit (kCircuitB) ever built a session.
  EXPECT_EQ(stats.misses, 1u) << stats.to_line();
  EXPECT_EQ(stats.compiles, 1u) << stats.to_line();
}

TEST(SchedulerService, DeadlinePastTheFinalChunkBoundaryStillCompletes) {
  // Mid-run deadline enforcement is cooperative: the watchdog flips the
  // request's cancel flag, and the engine acts on it at the next
  // shard-chunk boundary. A single-chunk run stalled inside its *final*
  // emit has no boundary left to stop at, so it completes — late, but
  // bit-exact — instead of being killed mid-write.
  SamplingService service(
      {.num_workers = 1, .watchdog_log = [](std::string_view) {}});
  CompletionRecorder recorder;
  SampleRequest slow = SampleRequest::sample(kCircuitB, 100);
  slow.deadline_ms = 200;  // plenty to *start* on an idle worker
  const FrameFn record = recorder.fn(1);
  auto stalled = std::make_shared<std::atomic<bool>>(true);
  service.submit(1, slow,
                 [stalled, record](const FrameHeader& header,
                                   std::string_view payload) {
                   if (stalled->exchange(false)) {
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(400));
                   }
                   record(header, payload);
                 });
  service.drain();
  EXPECT_EQ(recorder.error_for(1), "");  // completed, no error frame
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 1u) << stats.to_line();
  EXPECT_EQ(stats.rejected_expired, 0u) << stats.to_line();
  EXPECT_EQ(stats.expired_running, 0u) << stats.to_line();
}

/// Parks a request's emit on its first data frame until `release()`,
/// so a test can hold a run demonstrably in flight while the watchdog
/// watches it age.
FrameFn parking_emit(Latch& parked, FrameFn record) {
  auto first = std::make_shared<std::atomic<bool>>(true);
  return [&parked, first, record = std::move(record)](
             const FrameHeader& header, std::string_view payload) {
    if ((header.flags & (kFrameLast | kFrameError)) == 0 &&
        first->exchange(false)) {
      parked.mark_waiting();
      parked.wait();
    }
    record(header, payload);
  };
}

bool logged_event(std::mutex& mutex, const std::vector<std::string>& lines,
                  std::string_view event) {
  const std::string needle = "\"event\":\"" + std::string(event) + "\"";
  const std::lock_guard<std::mutex> lock(mutex);
  for (const std::string& line : lines) {
    if (line.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(SchedulerService, WatchdogCutsADeadlineExpiredRunMidStream) {
  // The tentpole pin: a multi-chunk run whose deadline passes while it
  // executes is cut at the next chunk boundary with a mid-run
  // `deadline_expired` frame, counted in `expired_running` (NOT in the
  // pre-run `rejected_expired`), and the session cache stays usable.
  std::mutex log_mutex;
  std::vector<std::string> log_lines;
  SamplingService service({.num_workers = 1,
                           .max_frame_payload = 256,
                           .watchdog_log =
                               [&](std::string_view line) {
                                 const std::lock_guard<std::mutex> lock(
                                     log_mutex);
                                 log_lines.emplace_back(line);
                               }});
  CompletionRecorder recorder;
  Latch parked;
  // 200k shots = 25 shards at 256-byte frames: boundaries galore.
  SampleRequest slow = SampleRequest::sample(kCircuitB, 200'000);
  slow.format = SampleFormat::kB8;
  // Wide enough that the first chunk (and thus the park) always lands
  // before expiry, even under sanitizers; the park then holds the run
  // in flight for as long as the watchdog needs.
  slow.deadline_ms = 500;
  service.submit(1, slow, parking_emit(parked, recorder.fn(1)));
  parked.wait_for_waiter();
  // The run is parked inside its first emit; hold it there until the
  // watchdog has provably cut it (the structured log event is the
  // externally visible receipt of the cut).
  const auto poll_deadline = Clock::now() + std::chrono::seconds(10);
  while (!logged_event(log_mutex, log_lines, "deadline_expired")) {
    ASSERT_LT(Clock::now(), poll_deadline) << service.stats().to_line();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  parked.release();

  // The cut run must not poison the cached session for its neighbors.
  SampleRequest after = SampleRequest::sample(kCircuitB, 100);
  service.submit(2, after, recorder.fn(2));
  service.drain();

  const std::string error = recorder.error_for(1);
  EXPECT_NE(error.find("deadline expired mid-run"), std::string::npos)
      << error;
  EXPECT_EQ(recorder.error_for(2), "");
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.expired_running, 1u) << stats.to_line();
  EXPECT_EQ(stats.rejected_expired, 0u) << stats.to_line();
  EXPECT_EQ(stats.cancelled, 0u) << stats.to_line();
  EXPECT_EQ(stats.completed, 1u) << stats.to_line();
  EXPECT_EQ(stats.exec_timeouts, 0u) << stats.to_line();  // deadline cut
  EXPECT_EQ(stats.compiles, 1u) << stats.to_line();  // session survived
  EXPECT_EQ(stats.hits, 1u) << stats.to_line();
}

TEST(SchedulerService, ExecTimeoutCapCutsARunawayRunWithoutADeadline) {
  // `exec_timeout_ms` is the deadline-less backstop: the budget starts
  // at claim time and the watchdog cuts the run the same cooperative
  // way. While the run is wedged, health must show it aging
  // (`longest_running_ms`) with the pool intact (`workers_alive`).
  std::mutex log_mutex;
  std::vector<std::string> log_lines;
  SamplingService service({.num_workers = 1,
                           .max_frame_payload = 256,
                           .exec_timeout_ms = 500,
                           .watchdog_log =
                               [&](std::string_view line) {
                                 const std::lock_guard<std::mutex> lock(
                                     log_mutex);
                                 log_lines.emplace_back(line);
                               }});
  CompletionRecorder recorder;
  Latch parked;
  SampleRequest runaway = SampleRequest::sample(kCircuitB, 200'000);
  runaway.format = SampleFormat::kB8;  // no deadline_ms: only the cap cuts
  service.submit(1, runaway, parking_emit(parked, recorder.fn(1)));
  parked.wait_for_waiter();
  const auto poll_deadline = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    const ServiceHealth health = service.health();
    const ServiceStats stats = service.stats();
    if (health.workers_alive == 1 && health.longest_running_ms >= 1 &&
        stats.exec_timeouts == 1 &&
        logged_event(log_mutex, log_lines, "exec_timeout")) {
      break;
    }
    ASSERT_LT(Clock::now(), poll_deadline)
        << stats.to_line() << " | " << health.to_line();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  parked.release();

  SampleRequest after = SampleRequest::sample(kCircuitB, 100);
  service.submit(2, after, recorder.fn(2));
  service.drain();

  const std::string error = recorder.error_for(1);
  EXPECT_NE(error.find("wall-clock cap exceeded"), std::string::npos)
      << error;
  EXPECT_EQ(recorder.error_for(2), "");  // service keeps serving
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.exec_timeouts, 1u) << stats.to_line();
  EXPECT_EQ(stats.expired_running, 1u) << stats.to_line();
  EXPECT_EQ(stats.rejected_expired, 0u) << stats.to_line();
  EXPECT_EQ(stats.completed, 1u) << stats.to_line();
  EXPECT_EQ(stats.workers_alive, 1u) << stats.to_line();
}

TEST(SchedulerService, CancelQueuedRequestNeverRuns) {
  SamplingService service({.num_workers = 1});
  Latch latch;
  CompletionRecorder recorder;
  submit_blocker(service, latch, recorder);

  SampleRequest queued = SampleRequest::sample(kCircuitA, 100);
  const std::uint64_t ticket = service.submit(2, queued, recorder.fn(2));
  EXPECT_TRUE(service.cancel(ticket));
  EXPECT_FALSE(service.cancel(ticket));  // second cancel: already gone
  // The error frame arrives immediately, before the blocker finishes.
  EXPECT_EQ(recorder.order(), (std::vector<std::uint64_t>{2}));
  EXPECT_NE(recorder.error_for(2).find("cancelled"), std::string::npos);

  latch.release();
  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u) << stats.to_line();
  EXPECT_EQ(stats.compiles, 1u) << stats.to_line();  // blocker only
  EXPECT_FALSE(service.cancel(ticket));
  EXPECT_FALSE(service.cancel(9999));  // unknown ticket
}

TEST(SchedulerService, CancelMidStreamStopsAtChunkBoundaryAndSessionSurvives) {
  // Small frames force many emit calls per run; the emit callback
  // cancels its own request after the first data frame, so the stream
  // must end with a "cancelled" error frame instead of running its
  // remaining shards — and the cached session must stay fully usable.
  SamplingService service({.num_workers = 1, .max_frame_payload = 256});
  std::uint64_t ticket = 0;
  std::mutex ticket_mutex;
  std::atomic<int> data_frames{0};
  std::atomic<bool> cancel_result{false};
  Latch done;
  // 200k shots = 25 shards: plenty of boundaries after the first chunk.
  SampleRequest big = SampleRequest::sample(kCircuitB, 200'000);
  big.format = SampleFormat::kB8;
  std::string final_error;
  std::mutex error_mutex;
  const FrameFn emit = [&](const FrameHeader& header,
                           std::string_view payload) {
    if ((header.flags & kFrameLast) == 0) {
      if (data_frames.fetch_add(1) == 0) {
        const std::lock_guard<std::mutex> lock(ticket_mutex);
        cancel_result.store(service.cancel(ticket));
      }
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(error_mutex);
      final_error = (header.flags & kFrameError) != 0 ? std::string(payload)
                                                      : std::string();
    }
    done.release();
  };
  {
    const std::lock_guard<std::mutex> lock(ticket_mutex);
    ticket = service.submit(1, big, emit);
  }
  done.wait();
  service.drain();

  EXPECT_TRUE(cancel_result.load());
  {
    const std::lock_guard<std::mutex> lock(error_mutex);
    EXPECT_NE(final_error.find("cancelled"), std::string::npos)
        << final_error;
  }
  // Far fewer frames than the full 200 KB / 256 B stream would need.
  EXPECT_LT(data_frames.load(), 100);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u) << stats.to_line();

  // The session survived the abandoned stream: a re-request hits the
  // cache and the bits match the direct path exactly.
  SampleRequest again = SampleRequest::sample(kCircuitB, 5000);
  again.task.seed = 3;
  std::string payload;
  std::mutex payload_mutex;
  service.submit(2, again,
                 [&](const FrameHeader& header, std::string_view bytes) {
                   const std::lock_guard<std::mutex> lock(payload_mutex);
                   if ((header.flags & kFrameLast) == 0) {
                     payload += std::string(bytes);
                   } else {
                     EXPECT_EQ(header.flags, kFrameLast);
                   }
                 });
  service.drain();
  stats = service.stats();
  EXPECT_EQ(stats.hits, 1u) << stats.to_line();
  EXPECT_EQ(stats.misses, 1u) << stats.to_line();
  EXPECT_EQ(payload,
            direct_output(kCircuitB, SampleTask::measurements(5000).with_seed(3),
                          SampleFormat::k01));
}

TEST(SchedulerService, CancelOfLastQueuedJobWakesConcurrentDrain) {
  // Removing the last queued job via cancel() is a quiescence
  // transition: a drain() sleeping through it must be notified
  // (regression: cancel() only notified queue_space_). The race —
  // cancel beating the worker's pop — is hit probabilistically, so
  // iterate; without the notify the drain below deadlocks.
  SamplingService service({.num_workers = 1});
  const FrameFn devnull = [](const FrameHeader&, std::string_view) {};
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t ticket =
        service.submit(1, SampleRequest::sample(kCircuitB, 64), devnull);
    service.cancel(ticket);  // may or may not beat the worker's pop
    auto drained = std::async(std::launch::async, [&] { service.drain(); });
    ASSERT_EQ(drained.wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "drain() missed the cancel wakeup (iteration " << i << ")";
  }
}

// Regression: drain() must wait for a queue-cancelled request's error
// frame. Before the fix, cancel() notified the drain waiter while still
// holding the queue lock and emitted the frame after unlocking, so a
// concurrent drain() could observe "queue empty, nothing active" and
// return while the error frame was still being written.
TEST(SchedulerService, DrainWaitsForCancelledQueuedRequestErrorFrame) {
  SamplingService service({.num_workers = 1});
  Latch latch;
  CompletionRecorder recorder;
  submit_blocker(service, latch, recorder);

  std::atomic<bool> emitted{false};
  SampleRequest queued = SampleRequest::sample(kCircuitA, 100);
  const std::uint64_t ticket =
      service.submit(2, queued, [&](const FrameHeader&, std::string_view) {
        // A deliberately slow transport write: the frame is "on the
        // wire" only once this returns.
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        emitted = true;
      });

  std::thread canceller([&] { EXPECT_TRUE(service.cancel(ticket)); });
  // Let the canceller get into the emit before the blocker finishes.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  latch.release();
  service.drain();
  // The whole point: at drain() return, every accepted request's final
  // frame has been fully emitted — including the cancelled one's.
  EXPECT_TRUE(emitted.load());
  canceller.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u) << stats.to_line();
  EXPECT_EQ(stats.completed, 1u) << stats.to_line();
}

TEST(SchedulerService, TrySubmitRejectsOnlyWhenFull) {
  SamplingService service({.num_workers = 1, .queue_capacity = 1});
  Latch latch;
  CompletionRecorder recorder;
  submit_blocker(service, latch, recorder);

  // Worker busy; capacity-1 queue takes one request, the next is shed.
  const std::uint64_t queued =
      service.try_submit(2, SampleRequest::sample(kCircuitB, 64),
                         recorder.fn(2));
  EXPECT_NE(queued, 0u);
  EXPECT_EQ(service.try_submit(3, SampleRequest::sample(kCircuitB, 64),
                               recorder.fn(3)),
            0u);
  latch.release();
  service.drain();
  EXPECT_EQ(recorder.order(), (std::vector<std::uint64_t>{1, 2}));
}

TEST(SchedulerService, StatsLineCarriesQueueMetrics) {
  SamplingService service({.num_workers = 1});
  const std::string line = service.stats().to_line();
  for (const char* key :
       {"queue_depth=", "queue_peak=", "rejected_expired=", "cancelled=",
        "served_high=", "served_normal=", "served_low="}) {
    EXPECT_NE(line.find(key), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace symphase
