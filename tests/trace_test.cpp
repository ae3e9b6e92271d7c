// Unit tests for the request-lifecycle trace ring (common/trace.hpp):
// enable gating, ring wraparound accounting, untorn records under
// concurrent writers (run under TSan in CI), and the Chrome
// trace-event JSON rendering parsed back through the repo's own JSON
// parser; plus the compile bracket's build_sampler span, the init_pass
// span inside each compile, and the error code on a request's aborted
// instant.

#include "common/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "circuit/surface_code.hpp"
#include "http/json.hpp"
#include "service/service.hpp"

namespace symphase {
namespace {

/// Every trace test owns the global recorder: enable, run, then
/// restore the disabled default and discard leftovers so suites
/// compose in one process.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::set_enabled(false);
    trace::discard_all_for_testing();
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::discard_all_for_testing();
    trace::set_ring_capacity(4096);
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  const std::uint64_t before = trace::recorded_events();
  trace::span("noop", 10, 20, 1);
  trace::instant("noop", 1);
  { trace::Span scoped("noop", 1); }
  EXPECT_EQ(trace::recorded_events(), before);
  const std::string json = trace::drain_json();
  const JsonValue doc = parse_json(json);
  EXPECT_TRUE(doc.find("traceEvents")->as_array().empty());
}

TEST_F(TraceTest, SpanAndInstantRoundTripThroughJson) {
  trace::set_enabled(true);
  trace::span("fill", 1000, 251000, /*id=*/7, /*ticket=*/9, /*aux=*/3);
  trace::instant("accept", /*id=*/7, /*ticket=*/9);
  trace::set_enabled(false);

  const JsonValue doc = parse_json(trace::drain_json());
  EXPECT_EQ(doc.find("displayTimeUnit")->as_string(), "ms");
  const JsonValue* other = doc.find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->find("clock")->as_string(), "steady_ns");
  const JsonArray& events = doc.find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 2u);

  // Every event carries the Chrome-required keys.
  for (const JsonValue& event : events) {
    ASSERT_NE(event.find("name"), nullptr);
    ASSERT_NE(event.find("ph"), nullptr);
    ASSERT_NE(event.find("ts"), nullptr);
    ASSERT_NE(event.find("tid"), nullptr);
    EXPECT_EQ(event.find("pid")->as_u64(), 1u);
  }

  // Sorted by start time: the span (ts=1µs) precedes the instant
  // (stamped at now_ns(), far later on any real clock).
  const JsonValue& span = events[0];
  EXPECT_EQ(span.find("name")->as_string(), "fill");
  EXPECT_EQ(span.find("ph")->as_string(), "X");
  EXPECT_DOUBLE_EQ(span.find("ts")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(span.find("dur")->as_number(), 250.0);
  const JsonValue* args = span.find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("id")->as_u64(), 7u);
  EXPECT_EQ(args->find("ticket")->as_u64(), 9u);
  EXPECT_EQ(args->find("aux")->as_u64(), 3u);

  const JsonValue& instant = events[1];
  EXPECT_EQ(instant.find("name")->as_string(), "accept");
  EXPECT_EQ(instant.find("ph")->as_string(), "i");
  EXPECT_EQ(instant.find("s")->as_string(), "t");
  EXPECT_EQ(instant.find("args")->find("id")->as_u64(), 7u);
}

TEST_F(TraceTest, DrainConsumes) {
  trace::set_enabled(true);
  trace::instant("first");
  const JsonValue once = parse_json(trace::drain_json());
  EXPECT_EQ(once.find("traceEvents")->as_array().size(), 1u);
  const JsonValue again = parse_json(trace::drain_json());
  EXPECT_TRUE(again.find("traceEvents")->as_array().empty());
  trace::instant("second");
  const JsonValue fresh = parse_json(trace::drain_json());
  const JsonArray& events = fresh.find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].find("name")->as_string(), "second");
}

TEST_F(TraceTest, WraparoundDropsOldestAndCountsThem) {
  trace::set_ring_capacity(16);
  const std::uint64_t dropped_before = trace::dropped_events();
  trace::set_enabled(true);
  // A fresh thread gets a fresh (16-slot) ring; overflow it 4x.
  std::thread writer([] {
    for (std::uint64_t i = 0; i < 64; ++i) {
      trace::span("evt", i * 10, i * 10 + 5, /*id=*/i);
    }
  });
  writer.join();
  trace::set_enabled(false);

  const std::uint64_t dropped = trace::dropped_events() - dropped_before;
  EXPECT_EQ(dropped, 48u);

  const JsonValue doc = parse_json(trace::drain_json());
  EXPECT_GE(doc.find("otherData")->find("dropped_events")->as_u64(), 48u);
  const JsonArray& events = doc.find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 16u);
  // The survivors are the newest 16, each untorn: id i pairs with
  // ts == i*10 ns == i/100 µs and dur == 5 ns.
  for (const JsonValue& event : events) {
    const std::uint64_t id = event.find("args")->find("id")->as_u64();
    EXPECT_GE(id, 48u);
    EXPECT_LT(id, 64u);
    EXPECT_DOUBLE_EQ(event.find("ts")->as_number(),
                     static_cast<double>(id * 10) / 1000.0);
    EXPECT_DOUBLE_EQ(event.find("dur")->as_number(), 0.005);
  }
}

TEST_F(TraceTest, ConcurrentWritersAndDrainerStayConsistent) {
  trace::set_ring_capacity(64);  // Small enough to force wraparound races.
  const std::uint64_t recorded_before = trace::recorded_events();
  const std::uint64_t dropped_before = trace::dropped_events();
  trace::set_enabled(true);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 5000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        // Encode (writer, i) into the fields a torn read would mix up.
        const std::uint64_t id = (static_cast<std::uint64_t>(w) << 32) | i;
        trace::span("race", i * 100, i * 100 + 7, id, /*ticket=*/id,
                    /*aux=*/static_cast<std::uint64_t>(w));
      }
    });
  }
  std::vector<std::string> drains;
  std::thread drainer([&stop, &drains] {
    while (!stop.load(std::memory_order_acquire)) {
      drains.push_back(trace::drain_json());
    }
  });
  for (std::thread& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  drainer.join();
  trace::set_enabled(false);
  drains.push_back(trace::drain_json());

  std::uint64_t seen = 0;
  std::set<std::uint64_t> ids;
  for (const std::string& json : drains) {
    const JsonValue doc = parse_json(json);
    for (const JsonValue& event : doc.find("traceEvents")->as_array()) {
      ++seen;
      const JsonValue* args = event.find("args");
      const std::uint64_t id = args->find("id")->as_u64();
      // Untorn: every field derives from the same (writer, i) pair.
      EXPECT_EQ(args->find("ticket")->as_u64(), id);
      EXPECT_EQ(args->find("aux")->as_u64(), id >> 32);
      const std::uint64_t i = id & 0xffffffffu;
      EXPECT_DOUBLE_EQ(event.find("ts")->as_number(),
                       static_cast<double>(i * 100) / 1000.0);
      EXPECT_TRUE(ids.insert(id).second) << "event drained twice: " << id;
    }
  }
  // Conservation: every recorded event was either drained or counted
  // dropped. The drop counter may overcount under a racing drain (a
  // writer can count an already-drained slot), never undercount, so
  // the bound is one-sided.
  const std::uint64_t recorded = trace::recorded_events() - recorded_before;
  const std::uint64_t dropped = trace::dropped_events() - dropped_before;
  EXPECT_EQ(recorded, kWriters * kPerWriter);
  EXPECT_GE(seen + dropped, recorded);
  EXPECT_LE(seen, recorded);
}

TEST_F(TraceTest, ScopedSpanRecordsOnDestruction) {
  trace::set_enabled(true);
  { trace::Span scoped("scoped", /*id=*/42); }
  trace::set_enabled(false);
  const JsonValue doc = parse_json(trace::drain_json());
  const JsonArray& events = doc.find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].find("name")->as_string(), "scoped");
  EXPECT_EQ(events[0].find("args")->find("id")->as_u64(), 42u);
}

/// The aux of every build_sampler span in a drained trace document.
std::vector<std::uint64_t> sampler_builds(const JsonValue& doc) {
  std::vector<std::uint64_t> aux;
  for (const JsonValue& event : doc.find("traceEvents")->as_array()) {
    if (event.find("name")->as_string() == "build_sampler") {
      aux.push_back(event.find("args")->find("aux")->as_u64());
    }
  }
  return aux;
}

TEST_F(TraceTest, DetectionPrepareBuildsOnlyTheDetectionSampler) {
  // A detection task forces exactly its own record's sampler, once:
  // one build_sampler span with aux 1 (the detection record), and no
  // measurement-sampler build at all.
  SurfaceCodeOptions sc;
  sc.distance = 3;
  sc.rounds = 2;
  sc.data_depolarization = 0.01;
  sc.measurement_flip_probability = 0.01;
  const SimulatorSession session(surface_code_memory(sc));
  const SampleTask task = SampleTask::detection_events(100);
  trace::set_enabled(true);
  session.prepare(task);
  const JsonValue first = parse_json(trace::drain_json());
  session.prepare(task);
  trace::set_enabled(false);
  const JsonValue second = parse_json(trace::drain_json());
  EXPECT_EQ(sampler_builds(first), std::vector<std::uint64_t>{1});
  EXPECT_TRUE(sampler_builds(second).empty());
}

/// One complete span of a drained trace document.
struct SpanEvent {
  double start_us;
  double end_us;
  std::uint64_t tid;
  std::uint64_t aux;
};

/// Every span named `name` in a drained trace document.
std::vector<SpanEvent> spans_named(const JsonValue& doc,
                                   const std::string& name) {
  std::vector<SpanEvent> spans;
  for (const JsonValue& event : doc.find("traceEvents")->as_array()) {
    if (event.find("name")->as_string() == name) {
      const double start = event.find("ts")->as_number();
      spans.push_back({start, start + event.find("dur")->as_number(),
                       event.find("tid")->as_u64(),
                       event.find("args")->find("aux")->as_u64()});
    }
  }
  return spans;
}

TEST_F(TraceTest, EachCompiledBuildHoldsOneInitPass) {
  // The Initialization pass is its own span inside the compile, so a slow
  // compile splits into the pass and the detector combining: exactly one
  // init_pass inside each build_compiled, on its thread, with the pass's
  // phase tile-column count in aux. A second prepare is a cache hit and
  // records neither.
  SurfaceCodeOptions sc;
  sc.distance = 3;
  sc.rounds = 2;
  sc.data_depolarization = 0.01;
  sc.measurement_flip_probability = 0.01;
  const Circuit circuit = surface_code_memory(sc);
  const std::uint64_t tiles = ceil_div(
      CompiledSampler::compile(circuit).num_symbols(),
      BlockedTableau::kTileBits);
  trace::set_enabled(true);
  for (int k = 0; k < 2; ++k) {
    const SimulatorSession session(circuit);
    session.prepare(SampleTask::measurements(10));
    session.prepare(SampleTask::detection_events(10));
  }
  trace::set_enabled(false);
  const JsonValue doc = parse_json(trace::drain_json());
  const std::vector<SpanEvent> builds = spans_named(doc, "build_compiled");
  const std::vector<SpanEvent> passes = spans_named(doc, "init_pass");
  ASSERT_EQ(builds.size(), 2u);
  EXPECT_EQ(passes.size(), builds.size());
  for (const SpanEvent& build : builds) {
    std::size_t inside = 0;
    for (const SpanEvent& pass : passes) {
      inside += pass.tid == build.tid && pass.start_us >= build.start_us &&
                pass.end_us <= build.end_us;
    }
    EXPECT_EQ(inside, 1u);
  }
  for (const SpanEvent& pass : passes) {
    EXPECT_EQ(pass.aux, tiles);
  }
}

TEST_F(TraceTest, AbortedInstantCarriesTheErrorCode) {
  // One worker, held in the fault hook by request 1, so request 2 is
  // still queued when it is cancelled: its aborted instant carries the
  // `cancelled` code in aux, and request 1's done instant carries 0.
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  const FrameFn discard = [](const FrameHeader&, std::string_view) {};
  trace::set_enabled(true);
  {
    SamplingService service(
        {.num_workers = 1,
         .fault_hook = [released](std::uint64_t, const SampleRequest&) {
           released.wait();
         }});
    service.submit(1, SampleRequest::sample("X 0\nM 0\n", 10), discard);
    const std::uint64_t ticket =
        service.submit(2, SampleRequest::sample("X 0\nM 0\n", 10), discard);
    EXPECT_TRUE(service.cancel(ticket));
    release.set_value();
    service.drain();
  }
  trace::set_enabled(false);
  const JsonValue doc = parse_json(trace::drain_json());
  std::vector<std::uint64_t> done;
  std::vector<std::uint64_t> aborted;
  for (const JsonValue& event : doc.find("traceEvents")->as_array()) {
    const std::string& name = event.find("name")->as_string();
    const JsonValue* args = event.find("args");
    if (name == "done") {
      EXPECT_EQ(args->find("id")->as_u64(), 1u);
      done.push_back(args->find("aux")->as_u64());
    } else if (name == "aborted") {
      EXPECT_EQ(args->find("id")->as_u64(), 2u);
      aborted.push_back(args->find("aux")->as_u64());
    }
  }
  EXPECT_EQ(done, std::vector<std::uint64_t>{0});
  EXPECT_EQ(aborted, std::vector<std::uint64_t>{static_cast<std::uint64_t>(
                         ErrorCode::kCancelled)});
}

}  // namespace
}  // namespace symphase
