// Tracing must observe, never perturb: with tracing enabled, every
// transport's output bytes must equal the trace-off run, and the
// per-request timing summaries (kFrameTiming final frame, HTTP
// Server-Timing trailer) must partition the end-to-end time. Runs under
// ASan+UBSan and TSan in CI.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "circuit/parser.hpp"
#include "common/trace.hpp"
#include "http/json.hpp"
#include "http_test_client.hpp"
#include "sampler/sample_writer.hpp"
#include "service/request.hpp"
#include "service/service.hpp"
#include "service/wire.hpp"

namespace symphase {
namespace {

constexpr const char* kCircuit =
    "H 0\nCNOT 0 1\nX_ERROR(0.05) 0 1\nM 0 1\n";
constexpr const char* kDetCircuit =
    "X_ERROR(0.1) 0 1\n"
    "CNOT 0 1\n"
    "M 0 1\n"
    "DETECTOR rec[-1]\n"
    "DETECTOR rec[-2]\n"
    "OBSERVABLE_INCLUDE(0) rec[-2]\n";

/// Collects frames across requests; thread-safe.
class FrameCollector {
 public:
  FrameFn fn() {
    return [this](const FrameHeader& header, std::string_view payload) {
      const std::lock_guard<std::mutex> lock(mutex_);
      frames_.push_back(Frame{header, std::string(payload)});
    };
  }

  std::vector<Frame> frames() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return frames_;
  }

  /// The request's frame stream re-encoded to raw bytes — the exact
  /// transport-level output the differential pins.
  std::string bytes_for(std::uint64_t request_id) const {
    std::string out;
    for (const Frame& frame : frames()) {
      if (frame.header.request_id == request_id) {
        out += encode_frame(frame.header, frame.payload);
      }
    }
    return out;
  }

  MessageAssembler::Message message_for(std::uint64_t request_id) const {
    MessageAssembler assembler;
    std::optional<MessageAssembler::Message> result;
    for (const Frame& frame : frames()) {
      if (frame.header.request_id != request_id) {
        continue;
      }
      if (auto message = assembler.accept(frame)) {
        result = std::move(message);
      }
      EXPECT_FALSE(assembler.failed()) << assembler.error();
    }
    EXPECT_TRUE(result.has_value())
        << "request " << request_id << " never completed";
    return result.value_or(MessageAssembler::Message{});
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Frame> frames_;
};

class TraceDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::set_enabled(false);
    trace::discard_all_for_testing();
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::discard_all_for_testing();
  }
};

/// The request matrix one service run answers: both verbs, both
/// backends, multi-chunk streams (small frame payloads).
std::vector<SampleRequest> matrix() {
  std::vector<SampleRequest> requests;
  std::size_t i = 0;
  for (const SampleBackend backend :
       {SampleBackend::kSymPhase, SampleBackend::kFrameSimulator}) {
    for (const bool detect : {false, true}) {
      SampleRequest request = detect
                                  ? SampleRequest::detect(kDetCircuit, 9000)
                                  : SampleRequest::sample(kCircuit, 9000);
      request.task.backend = backend;
      request.task.seed = 100 + i;
      request.format = detect ? SampleFormat::kDets : SampleFormat::kB8;
      requests.push_back(request);
      ++i;
    }
  }
  return requests;
}

std::map<std::uint64_t, std::string> run_matrix(
    const std::vector<SampleRequest>& requests) {
  FrameCollector collector;
  {
    SamplingService service(
        {.num_workers = 2, .max_frame_payload = 512});
    for (std::size_t i = 0; i < requests.size(); ++i) {
      service.submit(i + 1, requests[i], collector.fn(), /*client_id=*/0,
                     /*rejection=*/nullptr, RequestTransport::kFrame);
    }
    service.drain();
  }
  std::map<std::uint64_t, std::string> bytes;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    bytes[i + 1] = collector.bytes_for(i + 1);
    EXPECT_FALSE(bytes[i + 1].empty()) << "request " << i + 1;
  }
  return bytes;
}

TEST_F(TraceDifferentialTest, FrameBytesIdenticalWithTracingOnAndOff) {
  const std::vector<SampleRequest> requests = matrix();
  const auto off = run_matrix(requests);

  trace::set_enabled(true);
  const auto on = run_matrix(requests);
  trace::set_enabled(false);

  ASSERT_EQ(off.size(), on.size());
  for (const auto& [id, bytes] : off) {
    EXPECT_EQ(on.at(id), bytes) << "request " << id;
  }

  // The traced run actually recorded the lifecycle: queue, compile,
  // execute, and emit spans all present for real request ids.
  const JsonValue doc = parse_json(trace::drain_json());
  std::set<std::string> names;
  std::set<std::uint64_t> ids;
  for (const JsonValue& event : doc.find("traceEvents")->as_array()) {
    names.insert(event.find("name")->as_string());
    ids.insert(event.find("args")->find("id")->as_u64());
  }
  for (const char* required :
       {"accept", "queue", "compile", "execute", "emit", "fill", "done"}) {
    EXPECT_EQ(names.count(required), 1u) << required;
  }
  for (std::uint64_t id = 1; id <= requests.size(); ++id) {
    EXPECT_EQ(ids.count(id), 1u) << "request " << id;
  }
}

TEST_F(TraceDifferentialTest, HttpBytesIdenticalWithTracingOnAndOff) {
  http_testing::GatewayHarness harness;
  http_testing::HttpClient client(harness.http_port());
  std::ostringstream body;
  body << "{\"circuit\":\"" << http_testing::json_escape(kDetCircuit)
       << "\",\"shots\":6000,\"seed\":5,\"format\":\"dets\"}";

  const auto fetch = [&]() {
    client.send_request("POST", "/v1/detect", body.str());
    http_testing::HttpResponse response = client.read_response();
    EXPECT_EQ(response.status, 200) << response.body;
    EXPECT_TRUE(response.chunked_complete);
    return response;
  };

  const http_testing::HttpResponse off = fetch();
  trace::set_enabled(true);
  const http_testing::HttpResponse on = fetch();
  EXPECT_EQ(on.body, off.body);

  // GET /v1/trace serves the recorded events as Chrome trace JSON.
  // The tail of the lifecycle ("execute", "done") is recorded on the
  // worker thread after the final frame ships, so tracing stays on and
  // we scrape until it lands — each scrape consumes, so accumulate
  // across them.
  std::set<std::string> names;
  for (int attempt = 0; attempt < 250 && names.count("done") == 0;
       ++attempt) {
    client.send_request("GET", "/v1/trace");
    const http_testing::HttpResponse trace_response = client.read_response();
    ASSERT_EQ(trace_response.status, 200);
    const JsonValue doc = parse_json(trace_response.body);
    for (const JsonValue& event : doc.find("traceEvents")->as_array()) {
      names.insert(event.find("name")->as_string());
    }
    if (names.count("done") == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_EQ(names.count("queue"), 1u);
  EXPECT_EQ(names.count("execute"), 1u);
  EXPECT_EQ(names.count("done"), 1u);
  // (That each drain consumes is pinned deterministically in
  // trace_test.cpp — shard-fill spans on pool threads can straggle
  // past "done" here, so an emptiness check would race.)
}

/// Parses "name;dur=12.345" stage values out of a Server-Timing string.
std::map<std::string, double> parse_server_timing(const std::string& value) {
  std::map<std::string, double> stages;
  std::istringstream iss(value);
  std::string item;
  while (std::getline(iss, item, ',')) {
    const std::size_t semi = item.find(";dur=");
    EXPECT_NE(semi, std::string::npos) << item;
    if (semi == std::string::npos) {
      continue;
    }
    std::size_t start = item.find_first_not_of(' ');
    stages[item.substr(start, semi - start)] =
        std::stod(item.substr(semi + 5));
  }
  return stages;
}

void expect_stage_partition(const std::map<std::string, double>& stages) {
  for (const char* name : {"queue", "compile", "execute", "emit", "total"}) {
    ASSERT_EQ(stages.count(name), 1u) << name;
  }
  const double sum = stages.at("queue") + stages.at("compile") +
                     stages.at("execute") + stages.at("emit");
  // Each stage truncates to µs independently; the sum may undershoot
  // total by < 4 µs (and never overshoot by more than rounding).
  EXPECT_NEAR(sum, stages.at("total"), 0.005) << "ms";
  EXPECT_GT(stages.at("total"), 0.0);
}

TEST_F(TraceDifferentialTest, FrameTimingSummaryPartitionsEndToEnd) {
  FrameCollector collector;
  SampleRequest request = SampleRequest::sample(kCircuit, 9000);
  request.want_timing = true;

  // The `timing=1` directive survives the wire codec.
  const SampleRequest decoded =
      parse_request_payload(encode_request_payload(request));
  EXPECT_TRUE(decoded.want_timing);
  EXPECT_FALSE(SampleRequest::sample(kCircuit, 1).want_timing);

  {
    SamplingService service({.num_workers = 1});
    service.submit(1, request, collector.fn(), /*client_id=*/0,
                   /*rejection=*/nullptr, RequestTransport::kFrame);
    service.drain();
  }
  const std::vector<Frame> frames = collector.frames();
  ASSERT_FALSE(frames.empty());
  const Frame& last = frames.back();
  EXPECT_EQ(last.header.flags, kFrameLast | kFrameTiming);

  const MessageAssembler::Message message = collector.message_for(1);
  EXPECT_FALSE(message.error) << message.error_text;
  EXPECT_EQ(message.timing, last.payload);
  // The timing payload annotates; the data bytes still match a direct
  // session run.
  const SimulatorSession session(parse_circuit(kCircuit));
  std::ostringstream direct;
  WriterSink sink(direct, request.format);
  session.run(request.task, sink);
  EXPECT_EQ(message.payload, direct.str());

  expect_stage_partition(parse_server_timing(message.timing));
}

TEST_F(TraceDifferentialTest, HttpServerTimingTrailerPartitionsEndToEnd) {
  http_testing::GatewayHarness harness;
  http_testing::HttpClient client(harness.http_port());
  std::ostringstream body;
  body << "{\"circuit\":\"" << http_testing::json_escape(kCircuit)
       << "\",\"shots\":4000,\"seed\":11}";
  client.send_request("POST", "/v1/sample", body.str());
  const http_testing::HttpResponse response = client.read_response();
  ASSERT_EQ(response.status, 200) << response.body;
  ASSERT_TRUE(response.chunked_complete);

  const std::string* declared = response.header("trailer");
  ASSERT_NE(declared, nullptr);
  EXPECT_EQ(*declared, "Server-Timing");
  const std::string* timing = response.trailer("server-timing");
  ASSERT_NE(timing, nullptr);
  expect_stage_partition(parse_server_timing(*timing));
}

}  // namespace
}  // namespace symphase
