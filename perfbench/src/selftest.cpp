// Self-tests for the benchmark's own arithmetic and parsers. They run
// at the start of every benchmark run (a failure aborts it before any
// measurement) and alone via `perfbench selftest`.

#include "selftest.hpp"

#include <cmath>
#include <sstream>
#include <string>

#include "api/session.hpp"
#include "circuit/parser.hpp"
#include "common.hpp"
#include "served.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

struct Checker {
  std::ostream& log;
  int failures = 0;

  void expect(bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      log << "selftest FAILED: " << what << '\n';
    }
  }
  void near(double got, double want, const std::string& what) {
    expect(std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want)),
           what + ": got " + std::to_string(got) + ", want " +
               std::to_string(want));
  }
};

void test_percentiles(Checker& c) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) {
    v.push_back(i);
  }
  c.near(percentile(v, 50), 50.5, "p50 of 1..100");
  c.near(percentile(v, 99), 99.01, "p99 of 1..100");
  c.near(percentile(v, 0), 1, "p0 of 1..100");
  c.near(percentile(v, 100), 100, "p100 of 1..100");
  c.near(median({3, 1, 2}), 2, "median of 3 values");
  c.near(percentile({}, 50), 0, "percentile of nothing");
  c.expect(tail_count(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  c.expect(tail_count(100, 99) == 1, "100 samples leave 1 beyond p99");
  c.expect(tail_count(1, 99) == 0, "one sample has no tail");
}

void test_server_timing(Checker& c) {
  const StageTimes t = parse_server_timing(
      "queue;dur=0.012, compile;dur=0.000, execute;dur=3.612, "
      "emit;dur=0.274, total;dur=3.899");
  c.expect(t.ok, "documented Server-Timing line parses");
  c.near(t.queue, 0.012, "queue");
  c.near(t.compile, 0.0, "compile");
  c.near(t.execute, 3.612, "execute");
  c.near(t.emit, 0.274, "emit");
  c.near(t.total, 3.899, "total");
  c.expect(!parse_server_timing("queue;dur=1, compile;dur=1, execute;dur=1, "
                                "total;dur=3")
                .ok,
           "a missing stage is rejected");
  c.expect(!parse_server_timing("queue;dur=x, compile;dur=1, execute;dur=1, "
                                "emit;dur=1, total;dur=3")
                .ok,
           "an unparsable duration is rejected");
}

void test_frames(Checker& c) {
  const std::string line = "queue;dur=0.1, compile;dur=0, execute;dur=1, "
                           "emit;dur=1, total;dur=2.1";
  const std::string bytes =
      encode_frame({0x0102030405060708ull, 9, 0, kFlagLast | kFlagTiming}, line);
  c.expect(bytes.size() == kHeaderBytes + line.size(), "frame length");
  c.expect(static_cast<unsigned char>(bytes[0]) == 0x08,
           "request id is little-endian");
  const FrameHead h = decode_head(bytes.data());
  c.expect(h.request_id == 0x0102030405060708ull && h.chunk_index == 9 &&
               h.payload_bytes == line.size(),
           "header round-trips");
  c.expect((h.flags & kFlagTiming) != 0 && (h.flags & kFlagLast) != 0 &&
               (h.flags & kFlagError) == 0,
           "kFrameTiming|kFrameLast flags round-trip");
  c.expect(parse_server_timing(bytes.substr(kHeaderBytes)).ok,
           "timing frame payload parses");
}

void test_http(Checker& c) {
  const std::string response =
      "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n"
      "Transfer-Encoding: chunked\r\nTrailer: Server-Timing\r\n\r\n"
      "5\r\nhello\r\nc;ext=1\r\n, 0123456789\r\n0\r\n"
      "Server-Timing: queue;dur=0.5, compile;dur=0, execute;dur=1, "
      "emit;dur=0.25, total;dur=1.75\r\n\r\n"
      "HTTP/1.1 200 OK";  // start of the next response
  for (const std::size_t step : {std::size_t{1}, std::size_t{3},
                                 std::size_t{7}, response.size()}) {
    HttpResponse r;
    std::size_t used = 0;
    for (std::size_t at = 0; at < response.size() && !r.done(); at += step) {
      const std::string_view slice =
          std::string_view(response).substr(at, step);
      used += r.feed(slice);
    }
    const std::string where = " (feeding " + std::to_string(step) + " bytes)";
    c.expect(r.done() && r.status() == 200 && r.chunked(),
             "chunked response completes" + where);
    c.expect(r.body() == "hello, 0123456789", "chunked body" + where);
    c.expect(used == response.size() - 15, "stops at the next response" + where);
    const StageTimes t = parse_server_timing(r.server_timing());
    c.expect(t.ok && t.total == 1.75, "Server-Timing trailer" + where);
  }
  HttpResponse truncated;
  truncated.feed(
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n");
  c.expect(!truncated.done() && !truncated.failed(),
           "a body without its terminal chunk is incomplete");
  HttpResponse bad;
  bad.feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n");
  c.expect(bad.failed(), "a malformed chunk size fails");
  HttpResponse error;
  error.feed("HTTP/1.1 503 Service Unavailable\r\nContent-Length: 4\r\n\r\n{}{}");
  c.expect(error.done() && error.status() == 503 && error.body() == "{}{}",
           "a Content-Length error response completes");
}

void test_b8_and_corruption(Checker& c) {
  c.expect(b8_bytes_per_shot(40) == 5, "40 bits take 5 bytes");
  c.expect(b8_bytes_per_shot(721) == 91 && b8_bytes_per_shot(728) == 91 &&
               b8_bytes_per_shot(729) == 92,
           "b8 rounds bits up to whole bytes");
  ServedClass cls;
  cls.shape = {"X_ERROR(0.25) 0 1 2\nM 0 1 2\nX_ERROR(0.5) 3\nM 3 0 1 2 3 0 1\n",
               symphase::SampleTarget::kMeasurements};
  cls.shots = 1001;
  const ExpectedResponses expected = expected_responses(cls, 5, 2);
  c.expect(expected.bytes[0].size() == 1001 * b8_bytes_per_shot(10),
           "in-process b8 output has shots * ceil(bits/8) bytes");
  c.expect(expected.bytes[0] != expected.bytes[1], "seeds differ");
  c.expect(response_matches(expected, 0, expected.bytes[0]),
           "an exact response matches");
  std::string corrupted = expected.bytes[0];
  corrupted[corrupted.size() / 2] ^= 0x10;
  c.expect(!response_matches(expected, 0, corrupted),
           "a corrupted response fails the check");
  c.expect(!response_matches(expected, 0, expected.bytes[0].substr(1)),
           "a short response fails the check");

  // The marginal check on real samples, then on a corrupted count.
  const symphase::SimulatorSession session(
      symphase::parse_circuit(cls.shape.text));
  PopcountSink sink;
  session.run(symphase::SampleTask::measurements(200'000).with_seed(3), sink);
  std::vector<double> p;
  for (std::size_t m = 0; m < session.compiled().num_measurements(); ++m) {
    p.push_back(session.compiled().outcome_probability(m));
  }
  std::string detail;
  c.expect(marginal_failures(sink.counts(), p, sink.shots(), detail) == 0,
           "sampled counts pass the marginal check: " + detail);
  std::vector<std::uint64_t> bad = sink.counts();
  bad[2] += 2000;
  c.expect(marginal_failures(bad, p, sink.shots(), detail) == 1,
           "a corrupted count fails the marginal check");
  c.expect(sigma_limit(1) == 5.0 && sigma_limit(4800) > 6.0,
           "sigma limit widens with the row count");
}

void test_spans(Checker& c) {
  c.expect(covered_ns({{0, 10}, {5, 20}, {30, 40}}, 0, 100) == 30,
           "overlapping intervals are counted once");
  c.expect(covered_ns({{0, 10}, {5, 20}}, 8, 12) == 4,
           "coverage is clipped to the parent");
  Tracer t;
  t.enable(true);
  const std::uint64_t root = t.record("stream", 100, 200, 0, 1);
  t.record("fill", 100, 150, root, 1);
  t.record("fill", 120, 160, root, 1);
  t.record("emit", 180, 190, root, 1);
  for (const SpanTotals& s : span_totals(t.spans())) {
    if (s.name == "stream") {
      c.near(s.self_s, 30e-9, "root self time excludes children's union");
    }
    if (s.name == "fill") {
      c.expect(s.count == 2, "two fill spans");
      c.near(s.total_s, 90e-9, "fill total");
    }
  }
  c.expect(t.chrome_json().find("\"ph\":\"X\"") != std::string::npos,
           "Chrome trace events are complete events");
  bool found = false;
  c.near(json_number("{\"completed\":12,\"fused_requests\":3}",
                     "fused_requests", found),
         3, "stats counter");
  c.expect(found, "stats counter found");
}

}  // namespace

int run_selftests(std::ostream& log) {
  Checker c{log};
  test_percentiles(c);
  test_server_timing(c);
  test_frames(c);
  test_http(c);
  test_b8_and_corruption(c);
  test_spans(c);
  return c.failures;
}

}  // namespace perfbench
