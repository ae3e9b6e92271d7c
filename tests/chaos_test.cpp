// Fault-injection harness for the serving stack (ISSUE: overload
// hardening). Each test throws one scripted transport or worker fault
// at a live server — RST mid-upload, RST mid-download, torn frames,
// an EINTR storm, an injected worker exception, drain under load — and
// pins the invariants that make the service operable:
//
//   - no crash (SIGPIPE in particular: CI runs this binary under
//     ASan/TSan, so "survived" also means no leak and no race),
//   - no protocol desync: after every fault a fresh request streams
//     byte-identical output to the direct SimulatorSession run,
//   - no poisoned cache: a failure inside one request never corrupts
//     the shared compiled session other requests keep hitting,
//   - graceful drain: SIGTERM finishes in-flight work, flushes it, and
//     the process exits 0 (pinned end-to-end on the real binary).
//
// The client side of each fault is src/net/fault.hpp's FaultSocket;
// the server side is never instrumented — it is the system under test.
//
// The binary path and data dir are injected by CMake (SYMPHASE_CLI_PATH,
// SYMPHASE_DATA_DIR).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "circuit/parser.hpp"
#include "http_test_client.hpp"
#include "net/client.hpp"
#include "net/fault.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "sampler/sample_writer.hpp"
#include "service/errors.hpp"
#include "service/request.hpp"
#include "service/service.hpp"
#include "service/wire.hpp"

namespace symphase {
namespace {

constexpr const char* kCircuit = "X 0\nM 0 1\n";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

std::string direct_output(const std::string& circuit_text,
                          const SampleTask& task, SampleFormat format) {
  const SimulatorSession session(parse_circuit(circuit_text));
  std::ostringstream oss;
  WriterSink sink(oss, format);
  session.run(task, sink);
  return oss.str();
}

std::string one_frame_request(std::uint64_t request_id,
                              const SampleRequest& request) {
  FrameHeader header;
  header.request_id = request_id;
  header.flags = kFrameLast;
  return encode_frame(header, encode_request_payload(request));
}

/// In-process server whose run() result is observable — the drain
/// tests assert the loop exits *cleanly* (true), not merely exits.
class ChaosHarness {
 public:
  explicit ChaosHarness(SocketServerOptions options = {})
      : server_(std::move(options)),
        result_(std::async(std::launch::async, [this] {
          return server_.run();
        })) {}

  ~ChaosHarness() {
    if (result_.valid()) {
      server_.shutdown();
      result_.wait();
    }
  }

  std::string address() const {
    return "127.0.0.1:" + std::to_string(server_.port());
  }
  SocketServer& server() { return server_; }

  /// Joins the event loop and returns run()'s verdict.
  bool join() { return result_.get(); }

 private:
  SocketServer server_;
  std::future<bool> result_;
};

/// Waits until `predicate()` holds, polling service stats — the chaos
/// tests observe asynchronous cleanup (cancellation after an RST)
/// through the counters.
template <typename Predicate>
void await_stats(SamplingService& service, Predicate predicate) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!predicate(service.stats())) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << service.stats().to_line();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// Fresh-connection sanity probe: the server must still serve
/// byte-identical output after whatever fault just hit it.
void expect_still_serving(const std::string& address) {
  SampleRequest request;
  request.verb = RequestVerb::kSample;
  request.circuit_text = kCircuit;
  request.task.shots = 777;
  request.task.seed = 13;
  request.format = SampleFormat::kB8;
  ServiceClient client(address);
  client.submit(1, request);
  const MessageAssembler::Message reply = client.await(1);
  ASSERT_FALSE(reply.error) << reply.error_text;
  EXPECT_EQ(reply.payload,
            direct_output(kCircuit, request.task, request.format));
}

TEST(Chaos, ResetMidUploadLeavesServerServing) {
  // The client dies with an RST halfway through a request frame's
  // payload. The server must treat it as that connection's problem:
  // no crash, no SIGPIPE, and the next client is served correctly.
  ChaosHarness harness;
  {
    SampleRequest request;
    request.verb = RequestVerb::kSample;
    request.circuit_text = kCircuit;
    request.task.shots = 50'000;
    const std::string wire = one_frame_request(1, request);
    FaultPlan plan;
    plan.reset_after_bytes = kFrameHeaderBytes + 10;  // mid-payload
    FaultSocket socket(tcp_connect(parse_host_port(harness.address())),
                       plan);
    EXPECT_FALSE(socket.send(wire));  // the plan killed the connection
    EXPECT_FALSE(socket.alive());
  }
  expect_still_serving(harness.address());
}

TEST(Chaos, HalfCloseMidFrameIsAProtocolErrorNotAHang) {
  // A clean FIN in the middle of a frame is a torn message, not a
  // valid end-of-stream: the server must answer with an error frame
  // and close — and keep serving everyone else.
  ChaosHarness harness;
  {
    SampleRequest request;
    request.verb = RequestVerb::kSample;
    request.circuit_text = kCircuit;
    request.task.shots = 50'000;
    const std::string wire = one_frame_request(1, request);
    FaultPlan plan;
    plan.close_after_bytes = kFrameHeaderBytes + 10;
    FaultSocket socket(tcp_connect(parse_host_port(harness.address())),
                       plan);
    EXPECT_FALSE(socket.send(wire));

    // Drain whatever the server answers until IT closes; the reply (if
    // any) must be an error frame, and this read must terminate.
    FrameDecoder decoder;
    std::string last_error;
    char buffer[1 << 12];
    for (;;) {
      const std::size_t got = socket.recv_some(buffer, sizeof buffer);
      if (got == 0) {
        break;
      }
      decoder.feed({buffer, got});
      Frame frame;
      while (decoder.next(frame)) {
        EXPECT_NE(frame.header.flags & kFrameError, 0);
        last_error = frame.payload;
      }
    }
    EXPECT_NE(last_error.find("truncated inside a frame"), std::string::npos)
        << last_error;
  }
  expect_still_serving(harness.address());
}

TEST(Chaos, ResetMidDownloadCancelsWorkAndKeepsCacheClean) {
  // The client vanishes with an RST while a multi-megabyte response is
  // streaming. The abandoned job must be cancelled at the next chunk
  // boundary, and the shared compiled session must stay usable — the
  // follow-up request hits the same cache entry and matches the direct
  // run bit for bit.
  SocketServerOptions options;
  options.service.num_workers = 1;
  options.max_outbound_buffer = 1u << 16;
  ChaosHarness harness(std::move(options));
  SamplingService& service = harness.server().service();
  {
    SampleRequest huge;
    huge.verb = RequestVerb::kSample;
    huge.circuit_text = kCircuit;
    huge.task.shots = 50'000'000;
    huge.format = SampleFormat::kB8;
    FaultSocket socket(tcp_connect(parse_host_port(harness.address())),
                       FaultPlan{});
    ASSERT_TRUE(socket.send(one_frame_request(1, huge)));
    // Read one buffer's worth so the stream is demonstrably live, then
    // vanish mid-download.
    char buffer[1 << 12];
    ASSERT_NE(socket.recv_some(buffer, sizeof buffer), 0u);
    socket.reset_now();
  }
  await_stats(service,
              [](const ServiceStats& s) { return s.cancelled == 1; });
  expect_still_serving(harness.address());
  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.compiles, 1u) << stats.to_line();  // cache survived
  EXPECT_EQ(stats.hits, 1u) << stats.to_line();
}

TEST(Chaos, TornFramesAndShortWritesStayByteIdentical) {
  // Three pipelined requests, the whole stream sliced into 3-byte
  // sends with stalls inside each message's header region: reassembly
  // must be oblivious to write boundaries.
  ChaosHarness harness;
  std::vector<SampleRequest> requests;
  std::string wire;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    SampleRequest request;
    request.verb = RequestVerb::kSample;
    request.circuit_text = kCircuit;
    request.task.shots = 1000 + i;
    request.task.seed = i;
    requests.push_back(request);
    wire += one_frame_request(i, request);
  }
  FaultPlan plan;
  plan.max_write_chunk = 3;
  plan.tear_offsets = {5, kFrameHeaderBytes + 2, wire.size() / 2};
  plan.stall = std::chrono::milliseconds(2);
  FaultSocket socket(tcp_connect(parse_host_port(harness.address())), plan);
  ASSERT_TRUE(socket.send(wire));
  socket.close_writes_now();

  FrameDecoder decoder;
  MessageAssembler assembler;
  std::map<std::uint64_t, MessageAssembler::Message> replies;
  char buffer[1 << 16];
  for (;;) {
    const std::size_t got = socket.recv_some(buffer, sizeof buffer);
    if (got == 0) {
      break;
    }
    decoder.feed({buffer, got});
    Frame frame;
    while (decoder.next(frame)) {
      if (auto message = assembler.accept(frame)) {
        replies[message->request_id] = std::move(*message);
      }
    }
    ASSERT_FALSE(decoder.failed()) << decoder.error();
  }
  EXPECT_TRUE(decoder.finish()) << decoder.error();
  ASSERT_EQ(replies.size(), 3u);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ASSERT_FALSE(replies[i].error) << replies[i].error_text;
    EXPECT_EQ(replies[i].payload,
              direct_output(kCircuit, requests[i - 1].task,
                            requests[i - 1].format))
        << "request " << i;
  }
}

TEST(Chaos, EintrStormDuringTransferIsInvisible) {
  // A non-SA_RESTART signal fires at the process ~every millisecond
  // while a multi-megabyte response streams: every blocking call in
  // the client and the server (poll, read, send) sees EINTR and must
  // retry, not fail or drop bytes.
  struct sigaction action {};
  struct sigaction previous {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART
  ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);

  ChaosHarness harness;
  std::atomic<bool> storming{true};
  std::thread storm([&] {
    while (storming.load()) {
      kill(getpid(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  SampleRequest request;
  request.verb = RequestVerb::kSample;
  request.circuit_text = kCircuit;
  request.task.shots = 4'000'000;
  request.task.seed = 99;
  request.format = SampleFormat::kB8;
  std::string failure;
  std::string payload;
  try {
    ServiceClient client(harness.address());
    client.submit(1, request);
    const MessageAssembler::Message reply = client.await(1);
    if (reply.error) {
      failure = reply.error_text;
    } else {
      payload = std::move(reply.payload);
    }
  } catch (const std::exception& e) {
    failure = e.what();
  }
  storming.store(false);
  storm.join();
  ASSERT_EQ(sigaction(SIGUSR1, &previous, nullptr), 0);

  EXPECT_EQ(failure, "");
  EXPECT_EQ(payload, direct_output(kCircuit, request.task, request.format));
}

TEST(Chaos, InjectedWorkerFailureIsIsolatedAndCacheStaysClean) {
  // ServiceOptions::fault_hook fails exactly the second executed
  // request with an internal error. The neighbors must be untouched,
  // the failure must arrive as a structured E7 frame, and the shared
  // session must keep producing correct bytes afterwards.
  ServiceOptions options;
  options.num_workers = 1;
  options.fault_hook = [](std::uint64_t sequence, const SampleRequest&) {
    if (sequence == 2) {
      throw std::runtime_error("injected worker fault");
    }
  };
  SamplingService service(options);

  struct Reply {
    std::string payload;
    bool error = false;
    std::string error_text;
  };
  std::map<std::uint64_t, Reply> replies;
  std::mutex mutex;
  const FrameFn emit = [&](const FrameHeader& header,
                           std::string_view payload) {
    const std::lock_guard<std::mutex> lock(mutex);
    Reply& reply = replies[header.request_id];
    if ((header.flags & kFrameError) != 0) {
      reply.error = true;
      reply.error_text = std::string(payload);
    } else if ((header.flags & kFrameLast) == 0) {
      reply.payload += std::string(payload);
    }
  };

  SampleRequest request;
  request.verb = RequestVerb::kSample;
  request.circuit_text = kCircuit;
  request.task.shots = 2000;
  request.task.seed = 7;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    ASSERT_NE(service.submit(id, request, emit), 0u);
  }
  service.drain();

  const std::string expected =
      direct_output(kCircuit, request.task, request.format);
  const std::lock_guard<std::mutex> lock(mutex);
  EXPECT_FALSE(replies[1].error) << replies[1].error_text;
  EXPECT_EQ(replies[1].payload, expected);
  ASSERT_TRUE(replies[2].error);
  const ServiceError injected = parse_error_payload(replies[2].error_text);
  EXPECT_EQ(injected.code, ErrorCode::kInternal) << replies[2].error_text;
  EXPECT_FALSE(injected.retryable);
  EXPECT_NE(injected.message.find("injected worker fault"),
            std::string::npos);
  EXPECT_FALSE(replies[3].error) << replies[3].error_text;
  EXPECT_EQ(replies[3].payload, expected);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u) << stats.to_line();
  EXPECT_EQ(stats.completed, 2u) << stats.to_line();
  EXPECT_EQ(stats.compiles, 1u) << stats.to_line();  // not recompiled
}

TEST(Chaos, DrainFinishesInFlightRejectsNewAndExitsCleanly) {
  // In-process drain end to end: an in-flight response completes byte
  // for byte, a request submitted after drain is rejected with the
  // retryable `draining` error, new connections are refused, and the
  // event loop returns true (the exit-0 path).
  SocketServerOptions options;
  options.service.num_workers = 1;
  // Small outbound cap: the 500 KB response cannot fully flush while
  // we are busy poking `health`, so request 1 is provably in flight
  // across the whole drain sequence.
  options.max_outbound_buffer = 1u << 16;
  ChaosHarness harness(std::move(options));
  const std::string address = harness.address();

  SampleRequest big;
  big.verb = RequestVerb::kSample;
  big.circuit_text = kCircuit;
  big.task.shots = 2'000'000;
  big.task.seed = 21;
  big.format = SampleFormat::kB8;

  ServiceClient client(address);
  client.submit(1, big);
  // Drain only once the request demonstrably started executing —
  // draining an idle connection just retires it, and this test is
  // about the in-flight path.
  await_stats(harness.server().service(),
              [](const ServiceStats& s) { return s.misses == 1; });
  harness.server().drain();

  // The drain request travels through the self-pipe; `health` answers
  // from the loop thread, so once it reports draining, every later
  // frame on this connection is post-drain.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (client.health().find("state=draining") == std::string::npos) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  client.submit(2, big);
  const MessageAssembler::Message rejected = client.await(2);
  ASSERT_TRUE(rejected.error);
  const ServiceError error = parse_error_payload(rejected.error_text);
  EXPECT_EQ(error.code, ErrorCode::kDraining) << rejected.error_text;
  EXPECT_TRUE(error.retryable);

  const MessageAssembler::Message finished = client.await(1);
  ASSERT_FALSE(finished.error) << finished.error_text;
  EXPECT_EQ(finished.payload,
            direct_output(kCircuit, big.task, big.format));

  // Draining servers stop accepting: the listener is already closed.
  EXPECT_THROW(ServiceClient second(address), std::runtime_error);

  client.finish_writes();
  EXPECT_TRUE(harness.join());  // loop exits cleanly once conns retire
}

TEST(Chaos, DrainWithNoOpenConnectionEndsTheLoop) {
  // SIGTERM can arrive after the last client's connection retired, with
  // the loop parked in poll on nothing but the wake pipe; the drain
  // must still end run().
  SocketServer server(SocketServerOptions{});
  std::future<bool> loop =
      std::async(std::launch::async, [&server] { return server.run(); });
  // Let the loop reach poll before the drain: the state a late SIGTERM
  // finds.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.drain();
  const bool ended =
      loop.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  if (!ended) {
    server.shutdown();  // unstick the loop so the failure is reported
  }
  EXPECT_TRUE(ended) << "drain with no open connection never ended run()";
  EXPECT_TRUE(loop.get());
}

TEST(Chaos, ResilientClientRetriesRetryableRejection) {
  // Rate-limit the (single) connection's bucket so the second run is
  // rejected with rate_limited + a retry_after_ms hint; the client
  // must back off, resubmit on the same connection, and deliver
  // byte-identical output — counting both attempts.
  SocketServerOptions options;
  options.service.admission.client_shots_per_second = 2000;
  options.service.admission.client_burst_shots = 600;
  ChaosHarness harness(std::move(options));

  SampleRequest request;
  request.verb = RequestVerb::kSample;
  request.circuit_text = kCircuit;
  request.task.shots = 600;
  request.task.seed = 3;
  request.format = SampleFormat::kB8;
  const std::string expected =
      direct_output(kCircuit, request.task, request.format);

  RetryPolicy policy;
  policy.max_retries = 3;
  policy.initial_backoff_ms = 1;
  ResilientClient client(harness.address(), policy);

  std::string first;
  ResilientClient::Result result =
      client.run(request, [&](std::string_view bytes) {
        first += std::string(bytes);
      });
  ASSERT_TRUE(result.ok) << result.detail;
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_EQ(first, expected);

  // Bucket is now empty (burst == cost): the immediate rerun must be
  // rejected once, then succeed after the hinted backoff.
  std::string second;
  result = client.run(request, [&](std::string_view bytes) {
    second += std::string(bytes);
  });
  ASSERT_TRUE(result.ok) << result.detail;
  EXPECT_GE(result.attempts, 2u);
  EXPECT_EQ(second, expected);
}

TEST(Chaos, ResilientClientReportsConnectFailureAfterRetries) {
  // Nothing listens on the target port: every attempt must fail with
  // kConnect (the CLI maps this to exit code 3), consuming exactly
  // max_retries + 1 attempts.
  Socket probe = tcp_listen(HostPort{"127.0.0.1", 0});
  const std::string address =
      "127.0.0.1:" + std::to_string(local_port(probe));
  probe.close_fd();  // the port is now (briefly) guaranteed dead

  RetryPolicy policy;
  policy.max_retries = 2;
  policy.initial_backoff_ms = 1;
  ResilientClient client(address, policy);
  SampleRequest request;
  request.verb = RequestVerb::kSample;
  request.circuit_text = kCircuit;
  request.task.shots = 1;
  const ResilientClient::Result result =
      client.run(request, [](std::string_view) {});
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.failure, ResilientClient::FailureKind::kConnect);
  EXPECT_EQ(result.attempts, 3u);
}

TEST(Chaos, ResilientClientTimesOutOnAStalledServer) {
  // The worker is parked, so the response never starts: the
  // per-request wall clock must fire (the CLI maps this to exit 5) and
  // dropping the connection cancels the abandoned request server-side.
  SocketServerOptions options;
  options.service.num_workers = 1;
  ChaosHarness harness(std::move(options));
  SamplingService& service = harness.server().service();

  std::mutex mutex;
  std::condition_variable cv;
  bool blocked = false;
  bool released = false;
  auto first = std::make_shared<std::atomic<bool>>(true);
  service.submit(1000, SampleRequest::sample(kCircuit, 100),
                 [&, first](const FrameHeader&, std::string_view) {
                   if (first->exchange(false)) {
                     std::unique_lock<std::mutex> lock(mutex);
                     blocked = true;
                     cv.notify_all();
                     cv.wait(lock, [&] { return released; });
                   }
                 });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return blocked; });
  }

  RetryPolicy policy;
  policy.request_timeout_ms = 150;
  ResilientClient client(harness.address(), policy);
  SampleRequest request;
  request.verb = RequestVerb::kSample;
  request.circuit_text = kCircuit;
  request.task.shots = 50;
  const ResilientClient::Result result =
      client.run(request, [](std::string_view) {});
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.failure, ResilientClient::FailureKind::kTimeout);

  // Keep the worker parked until the server has seen the RST and
  // cancelled the abandoned (still-queued) request — releasing earlier
  // races the poll thread: a freed worker can complete the tiny job
  // before the reset lands, and then there is nothing left to cancel.
  await_stats(service,
              [](const ServiceStats& s) { return s.cancelled == 1; });
  {
    const std::lock_guard<std::mutex> lock(mutex);
    released = true;
  }
  cv.notify_all();
}

TEST(Chaos, HttpSlowReaderResetCancelsWorkAndServerKeepsServing) {
  // The HTTP twin of ResetMidDownloadCancelsWorkAndKeepsCacheClean,
  // with a slow-reader phase first: a gateway client POSTs a
  // multi-megabyte sample, reads a trickle (so the worker is provably
  // blocked on the tiny outbound cap), then vanishes with an RST. The
  // abandoned job must be cancelled at the next chunk boundary, a
  // concurrent well-behaved HTTP client must stream byte-identical
  // output throughout, and both transports must keep serving after.
  SocketServerOptions options;
  options.http_listen = "127.0.0.1:0";
  options.service.num_workers = 2;
  options.max_outbound_buffer = 1u << 16;
  ChaosHarness harness(std::move(options));
  SamplingService& service = harness.server().service();
  const std::uint16_t http_port = harness.server().http_port();

  SampleTask direct_task;
  direct_task.shots = 1000;
  direct_task.seed = 5;
  const std::string small_expected =
      direct_output(kCircuit, direct_task, SampleFormat::k01);
  const std::string small_body =
      std::string("{\"circuit\":\"") + http_testing::json_escape(kCircuit) +
      "\",\"shots\":1000,\"seed\":5}";

  {
    http_testing::HttpClient slow(http_port);
    slow.send_request("POST", "/v1/sample",
                      std::string("{\"circuit\":\"") +
                          http_testing::json_escape(kCircuit) +
                          "\",\"shots\":50000000,\"format\":\"b8\"}");
    // Pull a few KB off the socket so the stream is demonstrably live
    // (and the worker is parked on the outbound cap), reading slowly.
    std::size_t drained = 0;
    char buffer[1 << 10];
    while (drained < (1u << 14)) {
      const ssize_t got = ::recv(slow.fd(), buffer, sizeof buffer, 0);
      ASSERT_GT(got, 0);
      drained += static_cast<std::size_t>(got);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // A well-behaved client on the second worker is unaffected by the
    // neighbor hogging its outbound buffer.
    http_testing::HttpClient good(http_port);
    good.send_request("POST", "/v1/sample", small_body);
    const http_testing::HttpResponse ok = good.read_response();
    ASSERT_EQ(ok.status, 200) << ok.body;
    EXPECT_TRUE(ok.chunked_complete);
    EXPECT_EQ(ok.body, small_expected);

    // Vanish with an RST instead of a clean FIN.
    const linger hard_reset{1, 0};
    ASSERT_EQ(::setsockopt(slow.fd(), SOL_SOCKET, SO_LINGER, &hard_reset,
                           sizeof hard_reset),
              0);
  }  // ~HttpClient closes the lingering socket -> RST

  await_stats(service,
              [](const ServiceStats& s) { return s.cancelled == 1; });

  // Both transports still serve byte-identical output.
  expect_still_serving(harness.address());
  http_testing::HttpClient after(http_port);
  after.send_request("POST", "/v1/sample", small_body);
  const http_testing::HttpResponse response = after.read_response();
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_TRUE(response.chunked_complete);
  EXPECT_EQ(response.body, small_expected);
}

// ---------------------------------------------------------------------------
// Execution watchdog: wedged runs, stalls, worker crashes, idle
// connections. The wedge vector is the fault hooks: a hook that blocks
// holds the worker mid-claim, a worker_fault_hook that throws escapes
// the per-job handlers — both scripted, both observed through the
// watchdog's structured log, the new counters, and health.

/// Appends watchdog events to a shared vector; the wedge hooks below
/// poll it so they release only after the watchdog provably acted.
struct WatchdogLog {
  std::mutex mutex;
  std::vector<std::string> lines;

  std::function<void(std::string_view)> sink() {
    return [this](std::string_view line) {
      const std::lock_guard<std::mutex> lock(mutex);
      lines.emplace_back(line);
    };
  }

  bool saw(std::string_view event) {
    const std::string needle = "\"event\":\"" + std::string(event) + "\"";
    const std::lock_guard<std::mutex> lock(mutex);
    for (const std::string& line : lines) {
      if (line.find(needle) != std::string::npos) {
        return true;
      }
    }
    return false;
  }

  /// Blocks (bounded) until `event` was logged — the wedge hooks' exit
  /// condition, so tests are deterministic instead of sleep-tuned.
  void await(std::string_view event) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!saw(event)) {
      if (std::chrono::steady_clock::now() > give_up) {
        ADD_FAILURE() << "watchdog never logged " << event;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
};

/// Thread-safe per-request reply collector for in-process submissions.
struct ReplyMap {
  struct Reply {
    std::string payload;
    bool error = false;
    std::string error_text;
  };
  std::map<std::uint64_t, Reply> replies;
  std::mutex mutex;

  FrameFn fn() {
    return [this](const FrameHeader& header, std::string_view payload) {
      const std::lock_guard<std::mutex> lock(mutex);
      Reply& reply = replies[header.request_id];
      if ((header.flags & kFrameError) != 0) {
        reply.error = true;
        reply.error_text = std::string(payload);
      } else if ((header.flags & kFrameLast) == 0) {
        reply.payload += std::string(payload);
      }
    };
  }

  Reply get(std::uint64_t id) {
    const std::lock_guard<std::mutex> lock(mutex);
    return replies[id];
  }
};

TEST(Chaos, WedgedRequestIsCutByExecTimeoutAndServiceKeepsServing) {
  // The acceptance wedge: the fault hook blocks the (only) worker
  // mid-claim, past the execution cap. The watchdog must cut the stuck
  // request — `deadline_expired` frame, `exec_timeouts` and
  // `expired_running` counters, NOT the pre-run `rejected_expired` —
  // and the next request must be served bit-exact.
  WatchdogLog log;
  ServiceOptions options;
  options.num_workers = 1;
  options.exec_timeout_ms = 100;
  options.watchdog_log = log.sink();
  options.fault_hook = [&log](std::uint64_t sequence, const SampleRequest&) {
    if (sequence == 1) {
      log.await("exec_timeout");  // wedge until the watchdog acted
    }
  };
  SamplingService service(options);
  ReplyMap replies;

  SampleRequest request;
  request.verb = RequestVerb::kSample;
  request.circuit_text = kCircuit;
  request.task.shots = 2000;
  request.task.seed = 7;
  ASSERT_NE(service.submit(1, request, replies.fn()), 0u);
  await_stats(service,
              [](const ServiceStats& s) { return s.expired_running == 1; });
  // Submitted only after the cut, so it runs on the recovered worker.
  ASSERT_NE(service.submit(2, request, replies.fn()), 0u);
  service.drain();

  const ReplyMap::Reply cut = replies.get(1);
  ASSERT_TRUE(cut.error);
  const ServiceError error = parse_error_payload(cut.error_text);
  EXPECT_EQ(error.code, ErrorCode::kDeadlineExpired) << cut.error_text;
  EXPECT_NE(error.message.find("wall-clock cap exceeded"),
            std::string::npos)
      << cut.error_text;
  const ReplyMap::Reply served = replies.get(2);
  EXPECT_FALSE(served.error) << served.error_text;
  EXPECT_EQ(served.payload,
            direct_output(kCircuit, request.task, request.format));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.exec_timeouts, 1u) << stats.to_line();
  EXPECT_EQ(stats.expired_running, 1u) << stats.to_line();
  EXPECT_EQ(stats.rejected_expired, 0u) << stats.to_line();
  EXPECT_EQ(stats.completed, 1u) << stats.to_line();
  EXPECT_EQ(stats.workers_alive, 1u) << stats.to_line();
}

TEST(Chaos, StalledRequestIsFlaggedWithoutBeingAborted) {
  // Stall detection is observation, not enforcement: a run that makes
  // no shard-chunk progress for stall_warn_ms gets a structured log
  // line and the `stalled` counter — and then finishes normally once
  // it unwedges (no deadline, no exec cap).
  WatchdogLog log;
  ServiceOptions options;
  options.num_workers = 1;
  options.stall_warn_ms = 50;
  options.watchdog_log = log.sink();
  options.fault_hook = [&log](std::uint64_t sequence, const SampleRequest&) {
    if (sequence == 1) {
      log.await("stall");  // wedge until flagged, then recover
    }
  };
  SamplingService service(options);
  ReplyMap replies;

  SampleRequest request;
  request.verb = RequestVerb::kSample;
  request.circuit_text = kCircuit;
  request.task.shots = 2000;
  request.task.seed = 11;
  ASSERT_NE(service.submit(1, request, replies.fn()), 0u);
  service.drain();

  const ReplyMap::Reply reply = replies.get(1);
  EXPECT_FALSE(reply.error) << reply.error_text;
  EXPECT_EQ(reply.payload,
            direct_output(kCircuit, request.task, request.format));
  EXPECT_TRUE(log.saw("stall"));
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.stalled, 1u) << stats.to_line();
  EXPECT_EQ(stats.completed, 1u) << stats.to_line();
  EXPECT_EQ(stats.expired_running, 0u) << stats.to_line();
  EXPECT_EQ(stats.exec_timeouts, 0u) << stats.to_line();
}

TEST(Chaos, CrashedWorkerIsRespawnedAndPoolReturnsToFullStrength) {
  // The supervision pin: an exception escaping the per-job handlers
  // (worker_fault_hook throws outside them) fails only the in-flight
  // request with `internal`, the worker respawns (`worker_restarts`,
  // `workers_alive` back to the configured pool size), and the next
  // request is served bit-exact by the replacement.
  WatchdogLog log;
  std::atomic<int> crashes{0};
  ServiceOptions options;
  options.num_workers = 1;
  options.watchdog_log = log.sink();
  options.worker_fault_hook = [&crashes](std::size_t) {
    if (crashes.fetch_add(1) == 0) {
      throw std::runtime_error("injected wedge crash");
    }
  };
  SamplingService service(options);
  ReplyMap replies;

  SampleRequest request;
  request.verb = RequestVerb::kSample;
  request.circuit_text = kCircuit;
  request.task.shots = 2000;
  request.task.seed = 7;
  ASSERT_NE(service.submit(1, request, replies.fn()), 0u);
  await_stats(service, [](const ServiceStats& s) {
    return s.worker_restarts == 1 && s.workers_alive == 1;
  });
  EXPECT_TRUE(log.saw("worker_restart"));
  EXPECT_EQ(service.health().workers_alive, 1u);

  ASSERT_NE(service.submit(2, request, replies.fn()), 0u);
  service.drain();

  const ReplyMap::Reply crashed = replies.get(1);
  ASSERT_TRUE(crashed.error);
  const ServiceError error = parse_error_payload(crashed.error_text);
  EXPECT_EQ(error.code, ErrorCode::kInternal) << crashed.error_text;
  EXPECT_NE(error.message.find("worker crashed"), std::string::npos)
      << crashed.error_text;
  EXPECT_NE(error.message.find("injected wedge crash"), std::string::npos)
      << crashed.error_text;
  const ReplyMap::Reply served = replies.get(2);
  EXPECT_FALSE(served.error) << served.error_text;
  EXPECT_EQ(served.payload,
            direct_output(kCircuit, request.task, request.format));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u) << stats.to_line();
  EXPECT_EQ(stats.completed, 1u) << stats.to_line();
  EXPECT_EQ(stats.worker_restarts, 1u) << stats.to_line();
  EXPECT_EQ(stats.workers_alive, 1u) << stats.to_line();
}

TEST(Chaos, IdleFrameConnectionGetsTimeoutFrameThenClose) {
  // The frame-transport slow-loris defense: a connection with nothing
  // in flight and no inbound bytes for idle_timeout_ms is told why
  // (one `timeout` error frame on the reserved request id 0) and
  // closed. A client mid-request never idles out; after its response
  // the clock restarts and the same farewell arrives.
  SocketServerOptions options;
  options.idle_timeout_ms = 100;
  ChaosHarness harness(std::move(options));
  {
    // Connect and go mute.
    FaultSocket socket(tcp_connect(parse_host_port(harness.address())),
                       FaultPlan{});
    FrameDecoder decoder;
    std::vector<Frame> frames;
    char buffer[1 << 12];
    for (;;) {
      const std::size_t got = socket.recv_some(buffer, sizeof buffer);
      if (got == 0) {
        break;  // the server closed after the farewell frame
      }
      decoder.feed({buffer, got});
      Frame frame;
      while (decoder.next(frame)) {
        frames.push_back(frame);
      }
    }
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].header.request_id, 0u);
    EXPECT_NE(frames[0].header.flags & kFrameError, 0u);
    const ServiceError error = parse_error_payload(frames[0].payload);
    EXPECT_EQ(error.code, ErrorCode::kTimeout) << frames[0].payload;
    EXPECT_TRUE(error.retryable);
    EXPECT_NE(error.message.find("idle timeout"), std::string::npos)
        << frames[0].payload;
  }
  {
    // A working client: full response first, farewell only afterwards.
    SampleRequest request;
    request.verb = RequestVerb::kSample;
    request.circuit_text = kCircuit;
    request.task.shots = 777;
    request.task.seed = 13;
    ServiceClient client(harness.address());
    client.submit(1, request);
    const MessageAssembler::Message reply = client.await(1);
    ASSERT_FALSE(reply.error) << reply.error_text;
    EXPECT_EQ(reply.payload,
              direct_output(kCircuit, request.task, request.format));
    Frame frame;
    ASSERT_TRUE(client.next_chunk(frame));  // blocks ~idle_timeout_ms
    EXPECT_EQ(frame.header.request_id, 0u);
    EXPECT_NE(frame.header.flags & kFrameError, 0u);
    EXPECT_FALSE(client.next_chunk(frame));  // clean close after it
  }
  expect_still_serving(harness.address());
}

TEST(Chaos, MidRunTimeoutCountersVisibleOnEveryTransport) {
  // Satellite pin: a mid-run cut lands in `expired_running` (and
  // `exec_timeouts`) on every surface — the frame `stats` verb in line
  // and JSON form, `health`, HTTP /v1/stats, and Prometheus /metrics —
  // while `rejected_expired` stays a pre-run-only counter.
  WatchdogLog log;
  SocketServerOptions options;
  options.http_listen = "127.0.0.1:0";
  options.service.num_workers = 1;
  options.service.exec_timeout_ms = 100;
  options.service.watchdog_log = log.sink();
  options.service.fault_hook = [&log](std::uint64_t sequence,
                                      const SampleRequest&) {
    if (sequence == 1) {
      log.await("exec_timeout");
    }
  };
  ChaosHarness harness(std::move(options));
  SamplingService& service = harness.server().service();

  SampleRequest request;
  request.verb = RequestVerb::kSample;
  request.circuit_text = kCircuit;
  request.task.shots = 2000;
  request.task.seed = 7;
  ServiceClient client(harness.address());
  client.submit(1, request);
  const MessageAssembler::Message reply = client.await(1);
  ASSERT_TRUE(reply.error);
  const ServiceError error = parse_error_payload(reply.error_text);
  EXPECT_EQ(error.code, ErrorCode::kDeadlineExpired) << reply.error_text;
  EXPECT_NE(error.message.find("wall-clock cap exceeded"),
            std::string::npos)
      << reply.error_text;
  // The counter lands just after the error frame is emitted.
  await_stats(service,
              [](const ServiceStats& s) { return s.expired_running == 1; });

  const std::string line = client.stats();
  EXPECT_NE(line.find(" expired_running=1"), std::string::npos) << line;
  EXPECT_NE(line.find(" exec_timeouts=1"), std::string::npos) << line;
  EXPECT_NE(line.find(" rejected_expired=0"), std::string::npos) << line;
  const std::string json = client.stats(/*json=*/true);
  EXPECT_NE(json.find("\"expired_running\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"exec_timeouts\":1"), std::string::npos) << json;
  const std::string health_line = client.health();
  EXPECT_NE(health_line.find("workers_alive=1"), std::string::npos)
      << health_line;
  EXPECT_NE(health_line.find("longest_running_ms="), std::string::npos)
      << health_line;

  http_testing::HttpClient http(harness.server().http_port());
  http.send_request("GET", "/v1/stats");
  const http_testing::HttpResponse stats_response = http.read_response();
  ASSERT_EQ(stats_response.status, 200) << stats_response.body;
  EXPECT_NE(stats_response.body.find("\"expired_running\":1"),
            std::string::npos)
      << stats_response.body;
  EXPECT_NE(stats_response.body.find("\"exec_timeouts\":1"),
            std::string::npos)
      << stats_response.body;
  http.send_request("GET", "/metrics");
  const http_testing::HttpResponse metrics = http.read_response();
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("symphase_requests_expired_running_total 1"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("symphase_exec_timeouts_total 1"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("symphase_stalled_requests_total 0"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("symphase_worker_restarts_total 0"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("symphase_workers_alive 1"),
            std::string::npos)
      << metrics.body;

  expect_still_serving(harness.address());
}

TEST(ChaosCli, SigtermDrainsInFlightDownloadAndExitsZero) {
  // The acceptance pin: the real binary, a response mid-stream, one
  // SIGTERM. The download must complete byte-identically, the process
  // must exit 0, and the port must stop accepting.
  const std::string base = ::testing::TempDir() + "/chaos_cli";
  const std::string port_path = base + ".port";
  std::remove(port_path.c_str());
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      dup2(null_fd, STDERR_FILENO);
    }
    execl(SYMPHASE_CLI_PATH, "symphase", "serve", "--listen", "127.0.0.1:0",
          "--workers", "1", "--port-file", port_path.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }
  std::string port;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (port.empty()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "no port file";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::ifstream in(port_path);
    std::string line;
    if (in.good() && std::getline(in, line) && !line.empty()) {
      port = line;
    }
  }

  SampleRequest big;
  big.verb = RequestVerb::kSample;
  big.circuit_text = kCircuit;
  big.task.shots = 2'000'000;
  big.task.seed = 77;
  big.format = SampleFormat::kB8;

  std::string payload;
  {
    ServiceClient client("127.0.0.1:" + port);
    client.submit(1, big);
    // First frame in hand = the response is demonstrably in flight;
    // now ask for the graceful shutdown.
    Frame frame;
    ASSERT_TRUE(client.next_chunk(frame));
    ASSERT_EQ(frame.header.flags & kFrameError, 0) << frame.payload;
    payload += frame.payload;
    ASSERT_EQ(kill(pid, SIGTERM), 0);
    while ((frame.header.flags & kFrameLast) == 0) {
      ASSERT_TRUE(client.next_chunk(frame));
      ASSERT_EQ(frame.header.flags & kFrameError, 0) << frame.payload;
      payload += frame.payload;
    }
  }
  EXPECT_EQ(payload, direct_output(kCircuit, big.task, big.format));

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace symphase
