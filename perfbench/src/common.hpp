#pragma once

/// \file common.hpp
/// Shared pieces of the perfbench binary: clocks, order statistics,
/// the result report, the span recorder behind the traced run, the
/// workload inputs, and the sinks the in-process workloads sample into.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "api/sample_sink.hpp"
#include "api/sample_task.hpp"
#include "circuit/circuit.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}
std::uint64_t now_ns();
/// CPU time this process has used, all threads, in seconds.
double process_cpu_s();

// ---- Order statistics --------------------------------------------------

/// q-th percentile (q in [0, 100]) with linear interpolation between
/// closest ranks — numpy's default and Python's
/// statistics.quantiles(method="inclusive"). Empty input gives 0.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
/// Samples strictly above the q-th percentile's rank: the tail a
/// percentile rests on. The choosing-metrics rule wants at least ten.
std::size_t tail_count(std::size_t n, double q);

/// SplitMix64 step: derives per-operation sampling seeds from the
/// workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

// ---- Report ------------------------------------------------------------

/// Everything one run prints: metrics in declaration order, the
/// operation tally that feeds `failed`, and named output checks.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records one operation (request, CLI invocation, session run).
  void op(bool ok) { ops(1, ok ? 0 : 1); }
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Records one whole-run output check; a failed check also marks the
  /// run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return failed_ == 0 && checks_ok_; }

  /// Human-readable lines (every metric by name with its unit, each
  /// check, notes) followed by the one-line JSON result, which must be
  /// the last line of stdout.
  void print(std::ostream& out) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> check_lines_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool checks_ok_ = true;
};

/// JSON string literal with the escapes the result needs.
std::string json_quote(std::string_view s);

// ---- Spans -------------------------------------------------------------

/// One recorded interval. `parent` is the id of the span that caused it
/// (0 for a root); `run` groups the spans of one phase or request.
struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t run = 0;
  std::uint32_t tid = 0;
};

/// Span recorder for the traced run. Off unless enabled, in which case
/// begin()/end() take a mutex per span; spans stay in memory until the
/// run writes them out. Names must be string literals.
class Tracer {
 public:
  void enable(bool on) { enabled_ = on; }

  /// Opens a span and returns its id (0 when disabled).
  std::uint64_t begin(const char* name, std::uint64_t parent,
                      std::uint64_t run);
  void end(std::uint64_t id);
  /// Records an already-timed interval.
  std::uint64_t record(const char* name, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::uint64_t parent,
                       std::uint64_t run);

  std::vector<SpanRecord> spans() const;

  /// Chrome trace-event JSON in the shape trace::drain_json() emits.
  std::string chrome_json() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
  std::uint64_t next_id_ = 1;      // guarded by mutex_
};

/// RAII span over a Tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent = 0,
             std::uint64_t run = 0)
      : tracer_(tracer), id_(tracer.begin(name, parent, run)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { tracer_.end(id_); }
  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
std::uint64_t covered_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>>
                             intervals,
                         std::uint64_t lo, std::uint64_t hi);

/// Per-name totals over a span set: count, summed duration, and summed
/// self time (duration minus the part its direct children cover).
struct SpanTotals {
  std::string name;
  std::size_t count = 0;
  double total_s = 0;
  double self_s = 0;
};
std::vector<SpanTotals> span_totals(const std::vector<SpanRecord>& spans);

// ---- Workload inputs ---------------------------------------------------

/// The d=9, 9-round surface-code memory circuit at p = 1e-3 on data,
/// gates and measurements (the QEC workload and the served bulk class).
symphase::Circuit surface_d9_circuit();
/// The paper's Fig. 3c family at n = 300 qubits and layers, drawn from
/// `seed`.
symphase::Circuit fig3_circuit(std::uint64_t seed);
std::string read_file(const std::string& path);

/// One sampling task shape: circuit text plus what to sample from it.
struct TaskShape {
  std::string text;
  symphase::SampleTarget target = symphase::SampleTarget::kMeasurements;
};

/// Bytes one b8 record of `bits` bits takes.
inline std::size_t b8_bytes_per_shot(std::size_t bits) {
  return (bits + 7) / 8;
}

// ---- Sinks -------------------------------------------------------------

/// Keeps per-row firing counts and, when asked, an order-sensitive
/// checksum of the delivered bits. Does no serialization.
class PopcountSink final : public symphase::SampleSink {
 public:
  explicit PopcountSink(bool checksum = false) : checksum_(checksum) {}
  void begin(const symphase::SampleStreamInfo& info) override;
  void consume(const symphase::SampleChunk& chunk) override;

  /// Counts accumulate across runs until reset().
  void reset(std::size_t rows) {
    counts_.assign(rows, 0);
    shots_ = 0;
    hash_ = 0xcbf29ce484222325ull;
  }
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  std::uint64_t shots() const { return shots_; }
  std::uint64_t hash() const { return hash_; }

 private:
  bool checksum_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t shots_ = 0;
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Counts the bytes written through it and drops them.
class CountingBuf final : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      ++bytes_;
    }
    return traits_type::not_eof(c);
  }

 private:
  std::uint64_t bytes_ = 0;
};

/// Checks each row's firing count against its exact marginal: fails a
/// row whose count is more than sigma_limit(rows) standard deviations
/// from shots * p (rows with p = 0 or 1 must match exactly). Returns the
/// number of failing rows and describes the worst one in `detail`.
std::size_t marginal_failures(const std::vector<std::uint64_t>& counts,
                              const std::vector<double>& probabilities,
                              std::uint64_t shots, std::string& detail);

/// 5 sigma, widened by a Bonferroni correction so that a correct
/// sampler fails a run with probability below 1e-6 however many rows it
/// has (about 6.1 sigma for 730 rows, 6.4 for 4800).
double sigma_limit(std::size_t rows);

}  // namespace perfbench
