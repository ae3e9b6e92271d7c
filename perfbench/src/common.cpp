#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "circuit/generators.hpp"
#include "circuit/surface_code.hpp"
#include "common/rng.hpp"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::size_t tail_count(std::size_t n, double q) {
  if (n == 0) {
    return 0;
  }
  const double rank = q / 100.0 * static_cast<double>(n - 1);
  // Samples with index > rank sit strictly above the percentile.
  return n - 1 - static_cast<std::size_t>(std::floor(rank));
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---- Report ------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    checks_ok_ = false;
  }
  check_lines_.push_back("check " + name + ": " + (ok ? "ok" : "FAILED") +
                         (detail.empty() ? "" : " (" + detail + ")"));
}

std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  std::ostringstream oss;
  oss << std::setprecision(17) << v;
  return oss.str();
}

}  // namespace

void Report::print(std::ostream& out) const {
  for (const std::string& line : notes_) {
    out << line << '\n';
  }
  for (const std::string& line : check_lines_) {
    out << line << '\n';
  }
  const double failed_frac =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  out << "failed_frac = " << number(failed_frac) << " ratio (" << failed_
      << " of " << attempted_ << " operations)\n";
  for (const Metric& m : metrics_) {
    out << m.name << " = " << number(m.value) << " " << m.unit << '\n';
  }
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_quote(metrics_[i].name)
        << ": {\"value\": " << number(metrics_[i].value)
        << ", \"unit\": " << json_quote(metrics_[i].unit) << "}";
  }
  out << "}}" << std::endl;
}

// ---- Spans -------------------------------------------------------------

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

std::uint64_t Tracer::begin(const char* name, std::uint64_t parent,
                            std::uint64_t run) {
  if (!enabled_) {
    return 0;
  }
  SpanRecord rec;
  rec.name = name;
  rec.parent = parent;
  rec.run = run;
  rec.tid = thread_index();
  rec.start_ns = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  rec.id = next_id_++;
  spans_.push_back(rec);
  return rec.id;
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) {
    return;
  }
  const std::uint64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  // Ids are dense and assigned in push order.
  spans_[id - 1].end_ns = t;
}

std::uint64_t Tracer::record(const char* name, std::uint64_t start_ns,
                             std::uint64_t end_ns, std::uint64_t parent,
                             std::uint64_t run) {
  if (!enabled_) {
    return 0;
  }
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  rec.parent = parent;
  rec.run = run;
  rec.tid = thread_index();
  const std::lock_guard<std::mutex> lock(mutex_);
  rec.id = next_id_++;
  spans_.push_back(rec);
  return rec.id;
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string Tracer::chrome_json() const {
  std::vector<SpanRecord> spans = this->spans();
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(3);
  oss << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":0,"
         "\"clock\":\"steady_ns\",\"source\":\"perfbench\"},\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (s.end_ns < s.start_ns) {
      continue;  // never closed
    }
    oss << (first ? "" : ",") << "{\"name\":" << json_quote(s.name)
        << ",\"ph\":\"X\",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"pid\":1,\"tid\":" << s.tid << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}}";
    first = false;
  }
  oss << "]}";
  return oss.str();
}

std::uint64_t covered_ns(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals,
    std::uint64_t lo, std::uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t cursor = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return covered;
}

std::vector<SpanTotals> span_totals(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size() + 1);
  for (const SpanRecord& s : spans) {
    if (s.parent != 0 && s.parent <= spans.size()) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<SpanTotals> totals;
  for (const SpanRecord& s : spans) {
    if (s.end_ns < s.start_ns) {
      continue;
    }
    auto it = std::find_if(totals.begin(), totals.end(),
                           [&](const SpanTotals& t) { return t.name == s.name; });
    if (it == totals.end()) {
      totals.push_back({s.name});
      it = totals.end() - 1;
    }
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const std::uint64_t kids =
        s.id < children.size()
            ? covered_ns(children[s.id], s.start_ns, s.end_ns)
            : 0;
    ++it->count;
    it->total_s += static_cast<double>(dur) / 1e9;
    it->self_s += static_cast<double>(dur - kids) / 1e9;
  }
  return totals;
}

// ---- Workload inputs ---------------------------------------------------

symphase::Circuit surface_d9_circuit() {
  symphase::SurfaceCodeOptions o;
  o.distance = 9;
  o.rounds = 9;
  o.data_depolarization = 1e-3;
  o.gate_depolarization = 1e-3;
  o.measurement_flip_probability = 1e-3;
  return symphase::surface_code_memory(o);
}

symphase::Circuit fig3_circuit(std::uint64_t seed) {
  symphase::LayeredRandomCircuitOptions o;
  o.num_qubits = 300;
  o.num_layers = 300;
  o.cnot_pairs_per_layer = 0;
  o.half_n_cnot_pairs = true;
  o.measure_fraction = 0.05;
  o.depolarize_probability = 1e-3;
  symphase::Rng rng(seed);
  return symphase::layered_random_circuit(o, rng);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw std::runtime_error("cannot read '" + path + "'");
  }
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

// ---- Sinks -------------------------------------------------------------

void PopcountSink::begin(const symphase::SampleStreamInfo& info) {
  if (counts_.size() != info.bits_per_shot) {
    reset(info.bits_per_shot);
  }
}

void PopcountSink::consume(const symphase::SampleChunk& chunk) {
  const std::size_t words = (chunk.num_shots + 63) / 64;
  const std::size_t tail = chunk.num_shots % 64;
  const std::uint64_t tail_mask =
      tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
  for (std::size_t r = 0; r < chunk.bits->rows(); ++r) {
    const std::uint64_t* row = chunk.bits->row(r);
    std::uint64_t ones = 0;
    for (std::size_t w = 0; w + 1 < words; ++w) {
      ones += static_cast<std::uint64_t>(std::popcount(row[w]));
    }
    if (words > 0) {
      const std::uint64_t last = row[words - 1] & tail_mask;
      ones += static_cast<std::uint64_t>(std::popcount(last));
    }
    counts_[r] += ones;
    if (checksum_) {
      for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t v = w + 1 == words ? row[w] & tail_mask : row[w];
        hash_ = (hash_ ^ v) * 0x100000001b3ull;
        hash_ ^= hash_ >> 29;
      }
    }
  }
  shots_ += chunk.num_shots;
}

std::size_t marginal_failures(const std::vector<std::uint64_t>& counts,
                              const std::vector<double>& probabilities,
                              std::uint64_t shots, std::string& detail) {
  std::size_t failures = 0;
  double worst = -1;
  std::ostringstream oss;
  if (counts.size() != probabilities.size()) {
    detail = "row count mismatch";
    return counts.size() + probabilities.size();
  }
  const double limit = sigma_limit(counts.size());
  const double n = static_cast<double>(shots);
  for (std::size_t r = 0; r < counts.size(); ++r) {
    const double p = probabilities[r];
    const double expected = n * p;
    const double sigma = std::sqrt(n * p * (1.0 - p));
    const double dev = std::abs(static_cast<double>(counts[r]) - expected);
    // Rows with p exactly 0 or 1 have sigma 0: any deviation fails. The
    // 1e-9 * n slack only absorbs floating-point noise in p.
    const double z = dev / std::max(sigma, 1e-300);
    const bool bad = dev > limit * sigma + 1e-9 * n + 1e-6;
    failures += bad ? 1 : 0;
    if (z > worst) {
      worst = z;
      oss.str("");
      oss << "worst row " << r << ": " << counts[r] << " of " << shots
          << " vs p=" << p << " (" << std::setprecision(3)
          << (sigma > 0 ? z : dev) << (sigma > 0 ? " sigma)" : " off)");
    }
  }
  std::ostringstream head;
  head << failures << " of " << counts.size() << " rows outside "
       << std::setprecision(3) << limit << " sigma; ";
  detail = head.str() + oss.str();
  return failures;
}

double sigma_limit(std::size_t rows) {
  // Two-sided normal tail per row that keeps the chance of any false
  // alarm among `rows` independent rows below 1e-6 (Bonferroni).
  const double per_row = 1e-6 / static_cast<double>(std::max<std::size_t>(rows, 1));
  double lo = 0, hi = 40;
  for (int i = 0; i < 200; ++i) {
    const double mid = (lo + hi) / 2;
    (std::erfc(mid / std::sqrt(2.0)) > per_row ? lo : hi) = mid;
  }
  return std::max(5.0, hi);
}

}  // namespace perfbench
