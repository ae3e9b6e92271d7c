#pragma once

/// \file served.hpp
/// Drives `symphase serve --listen ... --http ...` as a child process
/// with a closed-loop load of four connections: two frame-protocol and
/// one HTTP connection sending small requests, and one frame connection
/// sending bulk requests. Every response is checked against the bytes an
/// in-process SimulatorSession + WriterSink produces for the same task.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "process.hpp"
#include "wire.hpp"

namespace perfbench {

/// One request class: what every request of the class asks for.
struct ServedClass {
  TaskShape shape;
  std::size_t shots = 0;
  /// threads= on the request; 0 leaves it to the server.
  std::size_t threads = 0;
};

struct ServedConfig {
  ServedClass small;
  ServedClass bulk;
};

/// What one measurement window observed.
struct ServedWindow {
  double seconds = 0;
  /// Round trips of small requests completed (and correct) inside the
  /// window, over all three small connections, with their completion
  /// times in seconds from the window start.
  std::vector<double> small_ms;
  std::vector<double> small_end_s;
  std::uint64_t small_completed = 0;
  /// Bulk data frames received inside the window, partial responses
  /// included: (seconds from the window start, payload bytes).
  std::vector<std::pair<double, std::uint64_t>> bulk_frames;
  /// With timing: the server's stage summary per small request and the
  /// part of each round trip outside the server's total, per transport.
  std::vector<StageTimes> small_stages;
  std::vector<StageTimes> bulk_stages;
  std::vector<double> frame_outside_ms;
  std::vector<double> http_outside_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
};

/// The server's `stats json=1` counters the per-layer metrics use.
struct ServerCounters {
  double completed = 0;
  double fused_requests = 0;
  double compiles = 0;
  bool ok = false;
};

/// Pulls `"key":<number>` out of a flat JSON object.
double json_number(const std::string& json, const std::string& key,
                   bool& found);

/// Expected response bytes of a class, per seed in its pool.
struct ExpectedResponses {
  std::vector<std::uint64_t> seeds;
  std::vector<std::string> bytes;
};
ExpectedResponses expected_responses(const ServedClass& cls,
                                     std::uint64_t seed, std::size_t count);

/// True when `got` is a complete, correct response for pool entry `i`.
bool response_matches(const ExpectedResponses& expected, std::size_t i,
                      const std::string& got);

/// One server child with both circuits registered.
class ServedSession {
 public:
  /// Spawns the server, waits for both listeners, registers the
  /// circuits and answers one request of each class. `index` keeps the
  /// port files of successive sessions apart.
  ServedSession(const Options& opt, const ServedConfig& config,
                const ExpectedResponses& small,
                const ExpectedResponses& bulk, int index);
  ~ServedSession();
  ServedSession(const ServedSession&) = delete;
  ServedSession& operator=(const ServedSession&) = delete;

  /// Spawn until both circuits are registered and the first request of
  /// each class is answered.
  double setup_s() const { return setup_s_; }
  /// Whether the two set-up requests came back correct.
  bool setup_ok() const { return setup_ok_; }

  /// Runs the closed loop for `seconds`. With `timing`, frame requests
  /// carry timing=1 and every request is recorded as a span.
  ServedWindow run_window(double seconds, bool timing, Tracer* tracer);

  ServerCounters counters();
  long server_peak_rss_kb() const { return peak_rss_kb(child_->pid()); }
  /// SIGTERM (graceful drain) and reap; true on exit status 0.
  bool stop();

 private:
  std::string request_line(const ServedClass& cls, const std::string& digest,
                           std::uint64_t seed, bool timing) const;
  std::string register_circuit(Connection& conn, const std::string& text);

  ServedConfig config_;
  const ExpectedResponses& small_expected_;
  const ExpectedResponses& bulk_expected_;
  std::unique_ptr<ChildProcess> child_;
  std::uint16_t frame_port_ = 0;
  std::uint16_t http_port_ = 0;
  std::string small_digest_;
  std::string bulk_digest_;
  double setup_s_ = 0;
  bool setup_ok_ = false;
  std::atomic<std::uint64_t> next_id_{1};
};

}  // namespace perfbench
