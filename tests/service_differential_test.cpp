// Differential test: the service path (`symphase serve --stdio`, a real
// subprocess speaking the wire protocol) must be bit-identical to the
// direct SimulatorSession path for every corpus circuit, for sample and
// detect, across thread counts and both backends. This extends the
// shard/RNG determinism contract (docs/performance.md) across the
// process boundary: framing, chunking, queueing, and worker scheduling
// may not change a single output byte. The HTTP gateway is pinned to
// the same outputs below: JSON translation, chunked encoding, and the
// shared-event-loop plumbing may not change a byte either, so all three
// transports agree across the corpus.
//
// The binary path and data dir are injected by CMake (SYMPHASE_CLI_PATH,
// SYMPHASE_DATA_DIR).

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "circuit/parser.hpp"
#include "http_test_client.hpp"
#include "sampler/sample_writer.hpp"
#include "service/digest.hpp"
#include "service/request.hpp"
#include "service/wire.hpp"
#include "test_process.hpp"

namespace symphase {
namespace {

const std::vector<std::string>& corpus_files() {
  static const std::vector<std::string> files = {
      "fig1.stim",          "teleport.stim",
      "repetition_d5_r3.stim", "steane_r2.stim",
      "surface_d3_r3.stim", "surface_d3_r3_noisy.stim"};
  return files;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

/// Runs `symphase serve --stdio`, feeding `input` on stdin and
/// returning raw stdout. Uses a shell pipeline with temp files so the
/// child sees a closed stdin (EOF-driven shutdown).
std::string run_serve(const std::string& input, const std::string& extra_args,
                      int expected_exit = 0) {
  static int counter = 0;
  const std::string base = temp_path("serve_" + std::to_string(counter++));
  const std::string in_path = base + ".in";
  const std::string out_path = base + ".out";
  {
    std::ofstream out(in_path, std::ios::binary);
    out.write(input.data(), static_cast<std::streamsize>(input.size()));
  }
  const std::string command = std::string(SYMPHASE_CLI_PATH) +
                              " serve --stdio " + extra_args + " < " +
                              in_path + " > " + out_path + " 2>/dev/null";
  const int status = std::system(command.c_str());
  EXPECT_EQ(WEXITSTATUS(status), expected_exit) << command;
  return read_file(out_path);
}

/// Decodes a response byte stream into per-request messages.
std::map<std::uint64_t, MessageAssembler::Message> decode_responses(
    const std::string& bytes) {
  FrameDecoder decoder;
  MessageAssembler assembler;
  std::map<std::uint64_t, MessageAssembler::Message> messages;
  decoder.feed(bytes);
  Frame frame;
  while (decoder.next(frame)) {
    if (auto message = assembler.accept(frame)) {
      EXPECT_EQ(messages.count(message->request_id), 0u)
          << "request " << message->request_id << " answered twice";
      messages[message->request_id] = std::move(*message);
    }
  }
  EXPECT_TRUE(decoder.finish()) << decoder.error();
  EXPECT_FALSE(assembler.failed()) << assembler.error();
  EXPECT_EQ(assembler.open_messages(), 0u);
  return messages;
}

std::string one_frame_request(std::uint64_t request_id,
                              const std::string& payload) {
  FrameHeader header;
  header.request_id = request_id;
  header.flags = kFrameLast;
  return encode_frame(header, payload);
}

std::string direct_output(const Circuit& circuit, const SampleTask& task,
                          SampleFormat format) {
  const SimulatorSession session(circuit);
  std::ostringstream oss;
  WriterSink sink(oss, format);
  session.run(task, sink);
  return oss.str();
}

struct Combo {
  SampleTarget target;
  SampleBackend backend;
  std::size_t threads;
  SampleFormat format;
};

/// The matrix: both targets x both backends x 1/2/8 threads, with the
/// format rotating through all applicable writers so each one crosses
/// the wire at least once per circuit.
std::vector<Combo> combos(bool has_detectors) {
  const std::vector<SampleFormat> sample_formats = {
      SampleFormat::k01, SampleFormat::kB8, SampleFormat::kHex,
      SampleFormat::kPtb64};
  const std::vector<SampleFormat> detect_formats = {
      SampleFormat::kDets, SampleFormat::k01, SampleFormat::kB8,
      SampleFormat::kPtb64};
  std::vector<Combo> result;
  std::size_t rotation = 0;
  for (const SampleBackend backend :
       {SampleBackend::kSymPhase, SampleBackend::kFrameSimulator}) {
    for (const std::size_t threads : {1ul, 2ul, 8ul}) {
      result.push_back({SampleTarget::kMeasurements, backend, threads,
                        sample_formats[rotation % sample_formats.size()]});
      if (has_detectors) {
        result.push_back({SampleTarget::kDetectionEvents, backend, threads,
                          detect_formats[rotation % detect_formats.size()]});
      }
      ++rotation;
    }
  }
  return result;
}

class ServiceDifferentialTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(ServiceDifferentialTest, ServeStdioBitIdenticalToDirectSession) {
  const std::string path = std::string(SYMPHASE_DATA_DIR) + "/" + GetParam();
  const std::string circuit_text = read_file(path);
  const Circuit circuit = parse_circuit(circuit_text);
  const bool has_detectors =
      circuit.num_detectors() + circuit.num_observables() > 0;

  // Shots span multiple shards with a ragged tail (and are odd, so the
  // packed formats' padding paths cross the wire too).
  const std::size_t shots = 2 * 8192 + 99;

  std::string input;
  std::map<std::uint64_t, std::string> expected;
  std::uint64_t id = 1;
  for (const Combo& combo : combos(has_detectors)) {
    SampleRequest request;
    request.verb = combo.target == SampleTarget::kMeasurements
                       ? RequestVerb::kSample
                       : RequestVerb::kDetect;
    request.circuit_text = circuit_text;
    request.task.target = combo.target;
    request.task.backend = combo.backend;
    request.task.shots = shots;
    request.task.seed = 1234 + id;
    request.task.num_threads = combo.threads;
    request.format = combo.format;
    input += one_frame_request(id, encode_request_payload(request));
    expected[id] = direct_output(circuit, request.task, combo.format);
    ++id;
  }

  // Several workers so responses interleave across requests; the
  // decoder demultiplexes by request_id.
  const std::string output = run_serve(input, "--workers 3");
  const auto messages = decode_responses(output);
  ASSERT_EQ(messages.size(), expected.size());
  for (const auto& [request_id, expected_bytes] : expected) {
    const auto it = messages.find(request_id);
    ASSERT_NE(it, messages.end()) << "request " << request_id;
    EXPECT_FALSE(it->second.error)
        << "request " << request_id << ": " << it->second.error_text;
    EXPECT_EQ(it->second.payload, expected_bytes)
        << GetParam() << " request " << request_id;
  }
}

const char* format_name(SampleFormat format) {
  switch (format) {
    case SampleFormat::k01:
      return "01";
    case SampleFormat::kHex:
      return "hex";
    case SampleFormat::kB8:
      return "b8";
    case SampleFormat::kPtb64:
      return "ptb64";
    case SampleFormat::kDets:
      return "dets";
  }
  return "01";
}

TEST_P(ServiceDifferentialTest, HttpGatewayBitIdenticalToFrameAndDirect) {
  const std::string path = std::string(SYMPHASE_DATA_DIR) + "/" + GetParam();
  const std::string circuit_text = read_file(path);
  const Circuit circuit = parse_circuit(circuit_text);
  const bool has_detectors =
      circuit.num_detectors() + circuit.num_observables() > 0;

  // Smaller than the stdio matrix (HTTP requests are serial on one
  // keep-alive connection) but still multi-shard with a ragged tail.
  const std::size_t shots = 8192 + 51;
  struct HttpCombo {
    RequestVerb verb;
    SampleBackend backend;
    std::size_t threads;
    SampleFormat format;
  };
  std::vector<HttpCombo> matrix;
  std::size_t rotation = 0;
  for (const SampleBackend backend :
       {SampleBackend::kSymPhase, SampleBackend::kFrameSimulator}) {
    for (const std::size_t threads : {1ul, 8ul}) {
      const std::vector<SampleFormat> sample_formats = {
          SampleFormat::k01, SampleFormat::kB8, SampleFormat::kHex,
          SampleFormat::kPtb64};
      matrix.push_back({RequestVerb::kSample, backend, threads,
                        sample_formats[rotation % sample_formats.size()]});
      if (has_detectors) {
        const std::vector<SampleFormat> detect_formats = {
            SampleFormat::kDets, SampleFormat::k01, SampleFormat::kB8,
            SampleFormat::kPtb64};
        matrix.push_back({RequestVerb::kDetect, backend, threads,
                          detect_formats[rotation % detect_formats.size()]});
      }
      ++rotation;
    }
  }

  // Build the identical request set for the frame protocol subprocess
  // and the expected bytes from direct sessions.
  std::string frame_input;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    const HttpCombo& combo = matrix[i];
    SampleRequest request;
    request.verb = combo.verb;
    request.circuit_text = circuit_text;
    request.task.target = combo.verb == RequestVerb::kSample
                              ? SampleTarget::kMeasurements
                              : SampleTarget::kDetectionEvents;
    request.task.backend = combo.backend;
    request.task.shots = shots;
    request.task.seed = 777 + i;
    request.task.num_threads = combo.threads;
    request.format = combo.format;
    frame_input +=
        one_frame_request(i + 1, encode_request_payload(request));
    expected.push_back(direct_output(circuit, request.task, combo.format));
  }
  const auto frame_messages =
      decode_responses(run_serve(frame_input, "--workers 3"));
  ASSERT_EQ(frame_messages.size(), matrix.size());

  // The HTTP side: same requests as JSON bodies against an in-process
  // gateway, responses streamed back chunked.
  http_testing::GatewayHarness harness;
  http_testing::HttpClient client(harness.http_port());
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    const HttpCombo& combo = matrix[i];
    std::ostringstream body;
    body << "{\"circuit\":\"" << http_testing::json_escape(circuit_text)
         << "\",\"shots\":" << shots << ",\"seed\":" << 777 + i
         << ",\"threads\":" << combo.threads << ",\"format\":\""
         << format_name(combo.format) << "\",\"backend\":\""
         << (combo.backend == SampleBackend::kSymPhase ? "symphase"
                                                       : "frames")
         << "\"}";
    client.send_request(
        "POST",
        combo.verb == RequestVerb::kSample ? "/v1/sample" : "/v1/detect",
        body.str());
    const http_testing::HttpResponse response = client.read_response();
    ASSERT_EQ(response.status, 200) << GetParam() << " combo " << i << ": "
                                    << response.body;
    EXPECT_TRUE(response.chunked_complete) << GetParam() << " combo " << i;
    EXPECT_NE(response.header("symphase-ticket"), nullptr);

    const auto frame_it = frame_messages.find(i + 1);
    ASSERT_NE(frame_it, frame_messages.end());
    EXPECT_FALSE(frame_it->second.error) << frame_it->second.error_text;
    // Three-way pin: HTTP == direct == frame protocol, byte for byte.
    EXPECT_EQ(response.body, expected[i])
        << GetParam() << " combo " << i << " (http vs direct)";
    EXPECT_EQ(frame_it->second.payload, expected[i])
        << GetParam() << " combo " << i << " (frame vs direct)";
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, ServiceDifferentialTest,
                         ::testing::ValuesIn(corpus_files()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '.' || c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(ServiceStdio, RegisterThenSampleByDigestCompilesOnce) {
  // The stats verb drains first, so its reply reflects the whole
  // session: two same-circuit requests (one inline, one by digest) plus
  // the register itself must show exactly one compile.
  const std::string circuit_text = "H 0\nCNOT 0 1\nX_ERROR(0.05) 0 1\nM 0 1\n";
  const Circuit circuit = parse_circuit(circuit_text);

  SampleRequest register_request;
  register_request.verb = RequestVerb::kRegister;
  register_request.circuit_text = circuit_text;

  std::string input =
      one_frame_request(1, encode_request_payload(register_request));

  // Inline-text request (same circuit, extra comments/whitespace).
  SampleRequest inline_request;
  inline_request.verb = RequestVerb::kSample;
  inline_request.circuit_text =
      "# same circuit\n  H 0\nCNOT 0 1\n\nX_ERROR(0.05) 0 1\nM 0 1\n";
  inline_request.task.shots = 5000;
  inline_request.task.seed = 42;
  input += one_frame_request(2, encode_request_payload(inline_request));

  // Digest-handle request. We know the digest deterministically.
  SampleRequest digest_request;
  digest_request.verb = RequestVerb::kSample;
  digest_request.digest = circuit_digest(circuit);
  digest_request.task.shots = 5000;
  digest_request.task.seed = 43;
  input += one_frame_request(3, encode_request_payload(digest_request));

  SampleRequest stats_request;
  stats_request.verb = RequestVerb::kStats;
  input += one_frame_request(4, encode_request_payload(stats_request));

  const auto messages = decode_responses(run_serve(input, "--workers 2"));
  ASSERT_EQ(messages.size(), 4u);
  EXPECT_EQ(messages.at(1).payload,
            "digest=" + circuit_digest(circuit) + "\n");
  EXPECT_EQ(messages.at(2).payload,
            direct_output(circuit, SampleTask::measurements(5000).with_seed(42),
                          SampleFormat::k01));
  EXPECT_EQ(messages.at(3).payload,
            direct_output(circuit, SampleTask::measurements(5000).with_seed(43),
                          SampleFormat::k01));
  const std::string stats = messages.at(4).payload;
  EXPECT_NE(stats.find("compiles=1 "), std::string::npos) << stats;
  EXPECT_NE(stats.find("hits=1 "), std::string::npos) << stats;
  EXPECT_NE(stats.find("misses=1 "), std::string::npos) << stats;
  EXPECT_NE(stats.find("completed=2 "), std::string::npos) << stats;
}

TEST(ServiceStdio, MalformedFramingExitsWithProtocolError) {
  // A frame header claiming a huge payload: the server must answer with
  // an error frame for request 0 and exit 1 — not hang or crash.
  FrameHeader header;
  header.request_id = 1;
  header.payload_bytes = 0x7fffffff;
  header.flags = kFrameLast;
  char head[kFrameHeaderBytes];
  encode_frame_header(header, head);
  const std::string output =
      run_serve(std::string(head, kFrameHeaderBytes), "", 1);
  const auto frames = [&] {
    FrameDecoder decoder;
    decoder.feed(output);
    std::vector<Frame> result;
    Frame frame;
    while (decoder.next(frame)) {
      result.push_back(frame);
    }
    return result;
  }();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.request_id, 0u);
  EXPECT_EQ(frames[0].header.flags, kFrameLast | kFrameError);
  EXPECT_NE(frames[0].payload.find("protocol error"), std::string::npos);
}

TEST(ServiceStdio, RespondsWhileStdinStaysOpen) {
  // Interactive clients keep stdin open between requests: the server
  // must answer as soon as a request's bytes arrive, not once some read
  // buffer fills or stdin closes. (Regression for the initial
  // istream::read(64 KiB) loop, which blocked until EOF.)
  int to_child[2];
  int from_child[2];
  ASSERT_EQ(pipe(to_child), 0);
  ASSERT_EQ(pipe(from_child), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    close(to_child[0]);
    close(to_child[1]);
    close(from_child[0]);
    close(from_child[1]);
    execl(SYMPHASE_CLI_PATH, "symphase", "serve", "--stdio",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  close(to_child[0]);
  close(from_child[1]);

  const std::string request =
      one_frame_request(1, encode_request_payload(
                               SampleRequest::sample("X 0\nM 0\n", 3)));
  ASSERT_EQ(write(to_child[1], request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  // stdin deliberately stays open while we wait for the response.
  FrameDecoder decoder;
  MessageAssembler assembler;
  std::optional<MessageAssembler::Message> message;
  char buffer[4096];
  while (!message) {
    pollfd waiting{from_child[0], POLLIN, 0};
    const int ready = poll(&waiting, 1, /*timeout_ms=*/10000);
    ASSERT_GT(ready, 0) << "no response within 10s with stdin still open";
    const ssize_t n = read(from_child[0], buffer, sizeof buffer);
    ASSERT_GT(n, 0);
    decoder.feed({buffer, static_cast<std::size_t>(n)});
    Frame frame;
    while (decoder.next(frame)) {
      if (auto completed = assembler.accept(frame)) {
        message = std::move(completed);
      }
    }
  }
  EXPECT_FALSE(message->error) << message->error_text;
  EXPECT_EQ(message->payload, "1\n1\n1\n");

  close(to_child[1]);  // EOF: clean shutdown
  close(from_child[0]);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServiceStdio, ConcurrentRequestIdReuseIsProtocolError) {
  // Reusing a request_id while its response is still streaming would
  // interleave two chunk sequences under one id; the server must end
  // the session as a protocol error instead. The first request is big
  // enough (and the worker pool small enough) that it is reliably still
  // in flight when the reuse arrives in the same read burst.
  SampleRequest big = SampleRequest::sample("X 0\nM 0 1\n", 20'000'000);
  big.format = SampleFormat::kB8;
  const std::string payload = encode_request_payload(big);
  const std::string input =
      one_frame_request(9, payload) + one_frame_request(9, payload);
  const std::string output = run_serve(input, "--workers 1", 1);
  const auto messages = decode_responses(output);
  // The first request still completes (drain before exit), then the
  // session-level error frame arrives on request 0.
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_FALSE(messages.at(9).error);
  EXPECT_EQ(messages.at(9).payload.size(), 20'000'000u);  // 1 b8 byte/shot
  EXPECT_TRUE(messages.at(0).error);
  EXPECT_NE(messages.at(0).error_text.find("reused while still in flight"),
            std::string::npos);
}

TEST(ServiceStdio, RequestIdZeroIsReserved) {
  // 0 is the session-level error id; a client request using it gets an
  // error frame (on id 0, where no data stream can exist) and the
  // session keeps serving.
  std::string input = one_frame_request(
      0, encode_request_payload(SampleRequest::sample("X 0\nM 0\n", 3)));
  input += one_frame_request(
      1, encode_request_payload(SampleRequest::sample("X 0\nM 0\n", 3)));
  const auto messages = decode_responses(run_serve(input, ""));
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_TRUE(messages.at(0).error);
  EXPECT_NE(messages.at(0).error_text.find("reserved"), std::string::npos);
  EXPECT_EQ(messages.at(1).payload, "1\n1\n1\n");
}

TEST(ServiceStdio, PerRequestErrorsDontKillTheSession) {
  // Request 1 is malformed (unknown verb), request 2 is valid: the
  // session answers both — an error frame, then real data — and exits 0.
  std::string input = one_frame_request(1, "frobnicate\n");
  SampleRequest good = SampleRequest::sample("X 0\nM 0\n", 3);
  input += one_frame_request(2, encode_request_payload(good));
  const auto messages = decode_responses(run_serve(input, ""));
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_TRUE(messages.at(1).error);
  EXPECT_NE(messages.at(1).error_text.find("unknown request verb"),
            std::string::npos);
  EXPECT_FALSE(messages.at(2).error);
  EXPECT_EQ(messages.at(2).payload, "1\n1\n1\n");
}

}  // namespace
}  // namespace symphase
