// Unit tests for the request-lifecycle trace ring (common/trace.hpp):
// enable gating, ring wraparound accounting, untorn records under
// concurrent writers (run under TSan in CI), and the Chrome
// trace-event JSON rendering parsed back through the repo's own JSON
// parser.

#include "common/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "http/json.hpp"

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

}  // namespace
}  // namespace symphase
