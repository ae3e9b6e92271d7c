// The HTTP/JSON gateway (src/http/): endpoints, error mapping, drain
// behavior, metrics, and structured logs against an in-process
// SocketServer running both listeners. The byte-identity of streamed
// sample bodies with the frame protocol and direct sessions over the
// full data/ corpus is pinned separately in
// service_differential_test.cpp; here a small circuit checks the
// plumbing end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "circuit/parser.hpp"
#include "http/json.hpp"
#include "http_test_client.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "sampler/sample_writer.hpp"
#include "service/request.hpp"

namespace symphase {
namespace {

using http_testing::GatewayHarness;
using http_testing::HttpClient;
using http_testing::HttpResponse;

std::string direct_output(const std::string& circuit_text,
                          const SampleTask& task, SampleFormat format) {
  const SimulatorSession session(parse_circuit(circuit_text));
  std::ostringstream oss;
  WriterSink sink(oss, format);
  session.run(task, sink);
  return oss.str();
}

constexpr const char* kBellCircuit = "H 0\nCNOT 0 1\nM 0 1\n";

/// The value of `series` (family name plus labels) in a /metrics page.
std::uint64_t sample_value(const std::string& text,
                           const std::string& series) {
  const std::size_t pos = text.find("\n" + series + " ");
  EXPECT_NE(pos, std::string::npos) << series << " missing:\n" << text;
  if (pos == std::string::npos) {
    return 0;
  }
  const std::size_t start = pos + series.size() + 2;
  return std::stoull(text.substr(start, text.find('\n', start) - start));
}

TEST(HttpGateway, HealthzAndStatsServeJson) {
  GatewayHarness harness;
  HttpClient client(harness.http_port());
  client.send_request("GET", "/healthz");
  const HttpResponse health = client.read_response();
  EXPECT_EQ(health.status, 200);
  ASSERT_NE(health.header("content-type"), nullptr);
  EXPECT_EQ(*health.header("content-type"), "application/json");
  const JsonValue parsed = parse_json(health.body);
  EXPECT_EQ(parsed.find("state")->as_string(), "accepting");
  EXPECT_EQ(parsed.find("queue_depth")->as_u64(), 0u);

  // Keep-alive: the same connection serves the next request.
  client.send_request("GET", "/v1/stats");
  const HttpResponse stats = client.read_response();
  EXPECT_EQ(stats.status, 200);
  const JsonValue counters = parse_json(stats.body);
  EXPECT_EQ(counters.find("completed")->as_u64(),
            harness.server().service().stats().completed);
  ASSERT_NE(counters.find("served"), nullptr);
  EXPECT_NE(counters.find("served")->find("normal"), nullptr);
}

TEST(HttpGateway, SampleStreamsBytesIdenticalToDirectSession) {
  GatewayHarness harness;
  SampleTask task = SampleTask::measurements(64);
  task.seed = 11;
  task.num_threads = 2;
  const std::string expected =
      direct_output(kBellCircuit, task, SampleFormat::k01);

  HttpClient client(harness.http_port());
  client.send_request(
      "POST", "/v1/sample",
      R"({"circuit":"H 0\nCNOT 0 1\nM 0 1\n","shots":64,"seed":11,)"
      R"("threads":2,"format":"01"})");
  const HttpResponse response = client.read_response();
  EXPECT_EQ(response.status, 200);
  ASSERT_NE(response.header("transfer-encoding"), nullptr);
  EXPECT_TRUE(response.chunked_complete);
  ASSERT_NE(response.header("symphase-ticket"), nullptr);
  EXPECT_NE(*response.header("symphase-ticket"), "0");
  EXPECT_EQ(response.body, expected);

  // Same connection, detect endpoint, dets format.
  SampleTask detect_task = SampleTask::detection_events(16);
  detect_task.seed = 3;
  const std::string circuit =
      "H 0\nCNOT 0 1\nM 0 1\nDETECTOR rec[-1] rec[-2]\n";
  const std::string expected_dets =
      direct_output(circuit, detect_task, SampleFormat::kDets);
  client.send_request(
      "POST", "/v1/detect",
      R"({"circuit":"H 0\nCNOT 0 1\nM 0 1\nDETECTOR rec[-1] rec[-2]\n",)"
      R"("shots":16,"seed":3})");
  const HttpResponse dets = client.read_response();
  EXPECT_EQ(dets.status, 200);
  EXPECT_EQ(dets.body, expected_dets);
}

TEST(HttpGateway, ErrorMappingIsTotal) {
  GatewayHarness harness;
  {
    // Unparseable circuit -> 400 bad_circuit with the structured body.
    HttpClient client(harness.http_port());
    client.send_request("POST", "/v1/sample",
                        R"({"circuit":"NOT_A_GATE 0\nM 0\n","shots":4})");
    const HttpResponse response = client.read_response();
    EXPECT_EQ(response.status, 400);
    const JsonValue body = parse_json(response.body);
    EXPECT_EQ(body.find("error")->as_string(), "bad_circuit");
    EXPECT_FALSE(body.find("retryable")->as_bool());

    // Unknown JSON field -> 400 before touching the service.
    client.send_request("POST", "/v1/sample", R"({"shotz":4})");
    EXPECT_EQ(client.read_response().status, 400);

    // Malformed JSON -> 400.
    client.send_request("POST", "/v1/sample", "{nope");
    EXPECT_EQ(client.read_response().status, 400);

    // Unknown route -> 404; wrong method -> 405 with Allow.
    client.send_request("GET", "/nope");
    EXPECT_EQ(client.read_response().status, 404);
    client.send_request("GET", "/v1/sample");
    const HttpResponse wrong_method = client.read_response();
    EXPECT_EQ(wrong_method.status, 405);
    ASSERT_NE(wrong_method.header("allow"), nullptr);
    EXPECT_EQ(*wrong_method.header("allow"), "POST");

    // Cancel with a garbage ticket -> 400; unknown ticket -> 404.
    client.send_request("POST", "/v1/cancel/abc");
    EXPECT_EQ(client.read_response().status, 400);
    client.send_request("POST", "/v1/cancel/999999");
    const HttpResponse unknown = client.read_response();
    EXPECT_EQ(unknown.status, 404);
    EXPECT_EQ(parse_json(unknown.body).find("error")->as_string(),
              "not_found");
  }
  {
    // Rate limiting -> 429 with a Retry-After hint in whole seconds.
    SocketServerOptions options = GatewayHarness::make_options();
    options.service.admission.client_shots_per_second = 1;
    options.service.admission.client_burst_shots = 64;
    GatewayHarness limited(options);
    HttpClient client(limited.http_port());
    client.send_request(
        "POST", "/v1/sample",
        R"({"circuit":"H 0\nCNOT 0 1\nM 0 1\n","shots":64,"seed":1})");
    EXPECT_EQ(client.read_response().status, 200);
    client.send_request(
        "POST", "/v1/sample",
        R"({"circuit":"H 0\nCNOT 0 1\nM 0 1\n","shots":64,"seed":1})");
    const HttpResponse limited_response = client.read_response();
    EXPECT_EQ(limited_response.status, 429);
    const JsonValue body = parse_json(limited_response.body);
    EXPECT_EQ(body.find("error")->as_string(), "rate_limited");
    EXPECT_TRUE(body.find("retryable")->as_bool());
    ASSERT_NE(limited_response.header("retry-after"), nullptr);
    EXPECT_GE(std::stoull(*limited_response.header("retry-after")), 1u);
  }
}

TEST(HttpGateway, ParserFailureAnswersThenCloses) {
  GatewayHarness harness;
  HttpClient client(harness.http_port());
  client.send("THIS IS NOT HTTP\r\n\r\n");
  const HttpResponse response = client.read_response();
  EXPECT_EQ(response.status, 400);
  ASSERT_NE(response.header("connection"), nullptr);
  EXPECT_EQ(*response.header("connection"), "close");
  EXPECT_TRUE(client.at_eof());
}

TEST(HttpGateway, PipelinedRequestsAnswerInOrder) {
  GatewayHarness harness;
  HttpClient client(harness.http_port());
  client.send(
      "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(client.read_response().status, 200);
  const HttpResponse stats = client.read_response();
  EXPECT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"completed\""), std::string::npos);
  const HttpResponse last = client.read_response();
  EXPECT_EQ(last.status, 200);
  EXPECT_TRUE(client.at_eof());
}

TEST(HttpGateway, MetricsAgreeWithServiceStats) {
  GatewayHarness harness;
  HttpClient client(harness.http_port());
  // Two requests for the same circuit: one miss+compile, one hit. Then
  // a high- and a low-priority hit (the low one on the frame backend,
  // one frame build), and a circuit that fails to parse: the counters
  // below mostly differ, so a series wired to the wrong field shows.
  for (int i = 0; i < 2; ++i) {
    client.send_request(
        "POST", "/v1/sample",
        R"({"circuit":"H 0\nCNOT 0 1\nM 0 1\n","shots":32,"seed":9})");
    EXPECT_EQ(client.read_response().status, 200);
  }
  client.send_request("POST", "/v1/sample",
                      R"({"circuit":"H 0\nCNOT 0 1\nM 0 1\n","shots":32,)"
                      R"("priority":"high"})");
  EXPECT_EQ(client.read_response().status, 200);
  client.send_request("POST", "/v1/sample",
                      R"({"circuit":"H 0\nCNOT 0 1\nM 0 1\n","shots":32,)"
                      R"("priority":"low","backend":"frames"})");
  EXPECT_EQ(client.read_response().status, 200);
  client.send_request("POST", "/v1/sample",
                      R"({"circuit":"NOT_A_GATE 0\n","shots":32})");
  EXPECT_EQ(client.read_response().status, 400);
  // The worker bumps `completed` after its last frame is handed off,
  // so a fast client can get here first — wait for the counter. The
  // shots-in-flight release lands separately (queue cleanup, after the
  // per-job accounting and the watchdog deregistration), so wait for
  // that gauge to settle too before snapshotting.
  ServiceStats stats = harness.server().service().stats();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (stats.completed < 4 || stats.failed < 1 ||
         stats.shots_in_flight != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << stats.to_line();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = harness.server().service().stats();
  }
  ASSERT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.frame_builds, 1u);
  EXPECT_EQ(stats.served_low, 1u);

  client.send_request("GET", "/metrics");
  const HttpResponse response = client.read_response();
  EXPECT_EQ(response.status, 200);
  ASSERT_NE(response.header("content-type"), nullptr);
  EXPECT_NE(response.header("content-type")->find("text/plain"),
            std::string::npos);
  const std::string& text = response.body;

  // Every ServiceStats value against the series that exports it.
  const std::pair<std::string, std::uint64_t> series[] = {
      {"symphase_cache_hits_total", stats.hits},
      {"symphase_cache_misses_total", stats.misses},
      {"symphase_cache_evictions_total", stats.evictions},
      {"symphase_compiles_total", stats.compiles},
      {"symphase_frame_builds_total", stats.frame_builds},
      {"symphase_requests_completed_total", stats.completed},
      {"symphase_requests_failed_total", stats.failed},
      {"symphase_queue_depth", stats.queue_depth},
      {"symphase_queue_peak", stats.queue_peak},
      {"symphase_requests_rejected_total{reason=\"deadline_expired\"}",
       stats.rejected_expired},
      {"symphase_requests_cancelled_total", stats.cancelled},
      {"symphase_requests_rejected_total{reason=\"queue_full\"}",
       stats.rejected_queue_full},
      {"symphase_requests_rejected_total{reason=\"rate_limited\"}",
       stats.rejected_rate_limited},
      {"symphase_requests_rejected_total{reason=\"draining\"}",
       stats.rejected_draining},
      {"symphase_shots_in_flight", stats.shots_in_flight},
      {"symphase_requests_expired_running_total", stats.expired_running},
      {"symphase_exec_timeouts_total", stats.exec_timeouts},
      {"symphase_stalled_requests_total", stats.stalled},
      {"symphase_worker_restarts_total", stats.worker_restarts},
      {"symphase_error_emit_failures_total", stats.error_emit_failures},
      {"symphase_longest_running_ms", stats.longest_running_ms},
      {"symphase_workers_alive", stats.workers_alive},
      {"symphase_served_total{priority=\"high\"}", stats.served_high},
      {"symphase_served_total{priority=\"normal\"}", stats.served_normal},
      {"symphase_served_total{priority=\"low\"}", stats.served_low},
  };
  for (const auto& [name, value] : series) {
    EXPECT_EQ(sample_value(text, name), value) << name;
  }
  EXPECT_NE(text.find("http_request_duration_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "http_request_duration_seconds_bucket{endpoint=\"/v1/sample\""),
      std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("http_requests_total{endpoint=\"/v1/sample\","
                      "code=\"200\"} 4"),
            std::string::npos);

  // The registry view and the HTTP view are the same text.
  const std::string scraped = harness.server().gateway()->metrics().scrape();
  EXPECT_NE(scraped.find("symphase_cache_hits_total"), std::string::npos);
}

TEST(HttpGateway, StageHistogramsCountEveryRequestOnBothTransports) {
  // K requests over HTTP and M over the frame protocol: every stage
  // histogram observes all K + M, and each transport's request
  // histogram only its own.
  constexpr std::uint64_t kHttpRequests = 3;
  constexpr std::uint64_t kFrameRequests = 2;
  GatewayHarness harness;
  HttpClient client(harness.http_port());
  for (std::uint64_t i = 0; i < kHttpRequests; ++i) {
    client.send_request(
        "POST", "/v1/sample",
        R"({"circuit":"H 0\nCNOT 0 1\nM 0 1\n","shots":32,"seed":9})");
    EXPECT_EQ(client.read_response().status, 200);
  }
  ServiceClient frames("127.0.0.1:" +
                       std::to_string(harness.server().port()));
  for (std::uint64_t id = 1; id <= kFrameRequests; ++id) {
    frames.submit(id, SampleRequest::sample(kBellCircuit, 32));
    EXPECT_FALSE(frames.await(id).error);
  }
  // Timings are observed after the final frame and `completed`; the
  // shots-in-flight release comes after both.
  ServiceStats stats = harness.server().service().stats();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (stats.completed < kHttpRequests + kFrameRequests ||
         stats.shots_in_flight != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << stats.to_line();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = harness.server().service().stats();
  }

  client.send_request("GET", "/metrics");
  const HttpResponse response = client.read_response();
  ASSERT_EQ(response.status, 200);
  const std::string& text = response.body;
  for (const char* stage : {"queue", "compile", "execute", "emit"}) {
    EXPECT_EQ(sample_value(text, "symphase_stage_duration_seconds_count{"
                                 "stage=\"" + std::string(stage) + "\"}"),
              kHttpRequests + kFrameRequests)
        << stage;
  }
  const std::string requests = "symphase_request_duration_seconds_count";
  EXPECT_EQ(sample_value(text, requests + "{transport=\"http\"}"),
            kHttpRequests);
  EXPECT_EQ(sample_value(text, requests + "{transport=\"frame\"}"),
            kFrameRequests);
  EXPECT_EQ(sample_value(text, requests + "{transport=\"local\"}"), 0u);
}

TEST(HttpGateway, MetricFamiliesKeepTheirNamesHelpAndTypes) {
  // Every `# HELP`/`# TYPE` line of a live scrape, sorted, as recorded
  // from the build before the service counters moved into one table.
  // The families' order may change; their names, help text and types
  // may not.
  GatewayHarness harness;
  HttpClient client(harness.http_port());
  client.send_request("GET", "/metrics");
  const HttpResponse response = client.read_response();
  ASSERT_EQ(response.status, 200);
  std::vector<std::string> lines;
  std::istringstream in(response.body);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("# ", 0) == 0) {
      lines.push_back(line);
    }
  }
  std::sort(lines.begin(), lines.end());
  const std::vector<std::string> expected = {
      "# HELP http_connections_active Open HTTP connections",
      "# HELP http_connections_total HTTP connections accepted",
      "# HELP http_parse_errors_total Requests rejected by the HTTP parser",
      "# HELP http_request_duration_seconds HTTP request latency from parse "
      "to final response byte enqueued",
      "# HELP http_requests_total HTTP requests by endpoint and status code",
      "# HELP http_response_bytes_total Response bytes enqueued to HTTP "
      "clients",
      "# HELP symphase_accepting 1 while accepting new requests, 0 while "
      "draining",
      "# HELP symphase_active_jobs Requests currently executing",
      "# HELP symphase_cache_evictions_total Sessions dropped by LRU pressure",
      "# HELP symphase_cache_hits_total Requests served by a cached compiled "
      "session",
      "# HELP symphase_cache_misses_total Requests that had to create a "
      "session",
      "# HELP symphase_compiles_total Symbolic compilations",
      "# HELP symphase_error_emit_failures_total Error frames the transport "
      "emitter failed to deliver",
      "# HELP symphase_exec_timeouts_total Watchdog enforcements of the "
      "per-request execution wall-clock cap",
      "# HELP symphase_frame_builds_total Frame-simulator builds",
      "# HELP symphase_longest_running_ms Age in milliseconds of the oldest "
      "in-flight run",
      "# HELP symphase_queue_depth Requests waiting in the scheduler queue",
      "# HELP symphase_queue_peak Highest queue depth ever observed",
      "# HELP symphase_request_duration_seconds End-to-end request latency "
      "(acceptance to final frame) by submitting transport",
      "# HELP symphase_requests_cancelled_total Requests cancelled while "
      "queued or mid-stream",
      "# HELP symphase_requests_completed_total Requests finished successfully",
      "# HELP symphase_requests_expired_running_total Requests cut mid-run by "
      "the watchdog (deadline or execution cap); pre-run deadline rejections "
      "stay in symphase_requests_rejected_total",
      "# HELP symphase_requests_failed_total Requests that ended in an error "
      "frame",
      "# HELP symphase_requests_rejected_total Requests turned away before "
      "execution, by reason",
      "# HELP symphase_served_total Successfully completed requests by "
      "priority class",
      "# HELP symphase_shots_in_flight Shots queued plus running",
      "# HELP symphase_stage_duration_seconds Per-request stage latency "
      "(queue|compile|execute|emit)",
      "# HELP symphase_stalled_requests_total In-flight runs flagged for "
      "making no shard-chunk progress for stall_warn_ms",
      "# HELP symphase_trace_dropped_events_total Trace events overwritten in "
      "a ring buffer before a drain collected them",
      "# HELP symphase_trace_enabled 1 while request-lifecycle trace "
      "recording is on",
      "# HELP symphase_worker_restarts_total Worker threads respawned after "
      "an escaped exception",
      "# HELP symphase_workers_alive Live worker threads",
      "# TYPE http_connections_active gauge",
      "# TYPE http_connections_total counter",
      "# TYPE http_parse_errors_total counter",
      "# TYPE http_request_duration_seconds histogram",
      "# TYPE http_requests_total counter",
      "# TYPE http_response_bytes_total counter",
      "# TYPE symphase_accepting gauge",
      "# TYPE symphase_active_jobs gauge",
      "# TYPE symphase_cache_evictions_total counter",
      "# TYPE symphase_cache_hits_total counter",
      "# TYPE symphase_cache_misses_total counter",
      "# TYPE symphase_compiles_total counter",
      "# TYPE symphase_error_emit_failures_total counter",
      "# TYPE symphase_exec_timeouts_total counter",
      "# TYPE symphase_frame_builds_total counter",
      "# TYPE symphase_longest_running_ms gauge",
      "# TYPE symphase_queue_depth gauge",
      "# TYPE symphase_queue_peak gauge",
      "# TYPE symphase_request_duration_seconds histogram",
      "# TYPE symphase_requests_cancelled_total counter",
      "# TYPE symphase_requests_completed_total counter",
      "# TYPE symphase_requests_expired_running_total counter",
      "# TYPE symphase_requests_failed_total counter",
      "# TYPE symphase_requests_rejected_total counter",
      "# TYPE symphase_served_total counter",
      "# TYPE symphase_shots_in_flight gauge",
      "# TYPE symphase_stage_duration_seconds histogram",
      "# TYPE symphase_stalled_requests_total counter",
      "# TYPE symphase_trace_dropped_events_total counter",
      "# TYPE symphase_trace_enabled gauge",
      "# TYPE symphase_worker_restarts_total counter",
      "# TYPE symphase_workers_alive gauge",
  };
  EXPECT_EQ(lines, expected);
}

TEST(HttpGateway, DrainRejectsNewWorkAndCompletes) {
  SocketServerOptions options = GatewayHarness::make_options();
  options.http.drain_grace_ms = 200;
  GatewayHarness harness(options);

  // An idle keep-alive connection from before the drain.
  HttpClient idle(harness.http_port());
  idle.send_request("GET", "/healthz");
  EXPECT_EQ(idle.read_response().status, 200);

  harness.server().drain();
  // Wait for the drain to take effect (accepting flips on the loop).
  for (int i = 0; i < 100 && harness.server().service().health().accepting;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Probes still answer: /healthz reports draining with 503, /metrics
  // scrapes. New work is 503 `draining` with Connection: close.
  HttpClient probe(harness.http_port());
  probe.send_request("GET", "/healthz");
  const HttpResponse health = probe.read_response();
  EXPECT_EQ(health.status, 503);
  EXPECT_EQ(parse_json(health.body).find("state")->as_string(), "draining");

  HttpClient metrics(harness.http_port());
  metrics.send_request("GET", "/metrics");
  EXPECT_EQ(metrics.read_response().status, 200);

  HttpClient work(harness.http_port());
  work.send_request("POST", "/v1/sample",
                    R"({"circuit":"M 0\n","shots":4})");
  const HttpResponse rejected = work.read_response();
  EXPECT_EQ(rejected.status, 503);
  EXPECT_EQ(parse_json(rejected.body).find("error")->as_string(), "draining");
  ASSERT_NE(rejected.header("connection"), nullptr);
  EXPECT_EQ(*rejected.header("connection"), "close");
  EXPECT_TRUE(work.at_eof());

  // The idle connection is closed after the grace period and the loop
  // exits on its own (GatewayHarness::~GatewayHarness joins).
  EXPECT_TRUE(idle.at_eof());
}

TEST(HttpGateway, DrainGraceExpiringMidStreamClosesAfterResponse) {
  SocketServerOptions options = GatewayHarness::make_options();
  options.http.drain_grace_ms = 50;
  // Tiny outbound cap: the worker backpressures against the unread
  // response, keeping the connection busy while the grace expires.
  options.max_outbound_buffer = 4096;
  GatewayHarness harness(options);

  HttpClient client(harness.http_port());
  // ~32 MB of '0'/'1' rows — far more than the outbound cap plus both
  // kernel socket buffers, so the stream stays mid-flight for as long
  // as this test refuses to read.
  client.send_request("POST", "/v1/sample",
                      R"({"circuit":"M 0\n","shots":16000000,"seed":7,)"
                      R"("format":"01"})");

  // Wait until the request is executing, then drain and let the grace
  // expire while the connection is still streaming.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (harness.server().service().health().active_jobs == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "request never started executing";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  harness.server().drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // The in-flight response finishes, complete and intact...
  const HttpResponse response = client.read_response();
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(response.chunked_complete);
  EXPECT_EQ(response.body.size(), 2u * 16000000u);
  // ...and then the connection closes. Before the busy-aware grace
  // handling, the connection returned to keep-alive and lingered until
  // the client went away, hanging the server's drain; at_eof() would
  // sit in recv() until the 10 s client timeout.
  const auto close_start = std::chrono::steady_clock::now();
  EXPECT_TRUE(client.at_eof());
  EXPECT_LT(std::chrono::steady_clock::now() - close_start,
            std::chrono::seconds(5));
}

TEST(HttpGateway, SlowLorisGets408) {
  SocketServerOptions options = GatewayHarness::make_options();
  options.http.header_timeout_ms = 100;
  GatewayHarness harness(options);
  HttpClient client(harness.http_port());
  client.send("GET /healthz HTT");  // ... and never finishes the head.
  const HttpResponse response = client.read_response();
  EXPECT_EQ(response.status, 408);
  EXPECT_TRUE(client.at_eof());
}

TEST(HttpGateway, StructuredLogsCaptureRequests) {
  SocketServerOptions options = GatewayHarness::make_options();
  std::mutex log_mutex;
  std::vector<std::string> lines;
  options.http.log_sink = [&](const std::string& line) {
    const std::lock_guard<std::mutex> lock(log_mutex);
    lines.push_back(line);
  };
  GatewayHarness harness(options);
  HttpClient client(harness.http_port());
  client.send_request("POST", "/v1/sample",
                      R"({"circuit":"M 0\n","shots":4,"seed":1})");
  EXPECT_EQ(client.read_response().status, 200);
  client.send_request("GET", "/nope");
  EXPECT_EQ(client.read_response().status, 404);

  // Streamed responses log from worker threads after the response bytes
  // are handed off, so the sample's line may land after the client has
  // read both replies (and after the 404's line). Wait for both, and
  // match by target instead of order.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(log_mutex);
      if (lines.size() >= 2) break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "log sink never saw both request lines";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::lock_guard<std::mutex> lock(log_mutex);
  ASSERT_EQ(lines.size(), 2u);
  bool saw_sample = false;
  bool saw_miss = false;
  for (const std::string& line : lines) {
    const JsonValue entry = parse_json(line);
    if (entry.find("target")->as_string() == "/v1/sample") {
      saw_sample = true;
      EXPECT_EQ(entry.find("method")->as_string(), "POST");
      EXPECT_EQ(entry.find("status")->as_u64(), 200u);
      EXPECT_GE(entry.find("ticket")->as_u64(), 1u);
      EXPECT_GE(entry.find("bytes")->as_u64(), 4u);
    } else {
      saw_miss = true;
      EXPECT_EQ(entry.find("target")->as_string(), "/nope");
      EXPECT_EQ(entry.find("status")->as_u64(), 404u);
    }
  }
  EXPECT_TRUE(saw_sample);
  EXPECT_TRUE(saw_miss);
}

TEST(HttpGateway, QueryStringsAndHttp10Handled) {
  GatewayHarness harness;
  HttpClient client(harness.http_port());
  // Query strings are stripped for routing.
  client.send_request("GET", "/healthz?verbose=1");
  EXPECT_EQ(client.read_response().status, 200);
  // HTTP/1.0 gets a response and a close.
  client.send("GET /healthz HTTP/1.0\r\n\r\n");
  const HttpResponse response = client.read_response();
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(client.at_eof());
}

}  // namespace
}  // namespace symphase
