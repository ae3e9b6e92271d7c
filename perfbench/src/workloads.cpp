// The four workloads. Each untraced run measures its end-to-end
// metrics for --seconds and checks its outputs; each traced run
// (--trace 1) instead measures every layer on the workload's own task,
// in process and through a short served window.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "api/sample_stream.hpp"
#include "api/session.hpp"
#include "bench.hpp"
#include "circuit/parser.hpp"
#include "common/parallel.hpp"
#include "layers.hpp"
#include "process.hpp"
#include "served.hpp"

namespace perfbench {

namespace {

using symphase::SampleTarget;
using symphase::SampleTask;
using symphase::SimulatorSession;

/// Shots per SimulatorSession::run in qec_d9_detect and fig3_layered:
/// eight shards (about 45 ms of d9 sampling at one thread), so a short
/// stretch of host contention spoils few of them.
constexpr std::size_t kRunShots = 1u << 16;
/// Threads of the in-process measurement loops and of the CLI. The
/// host's vCPUs are shared with other tenants: at nproc threads one
/// stolen vCPU stalls every fill window, and the threads' CPU cost per
/// shot moved with the neighbours' load (0.76-1.0 M d9 shots per
/// CPU-second against 1.40-1.53 at one thread). The CLI's start-up
/// median moved 34% between runs at its default 4 threads, and stayed
/// within 3.08-3.13 ms at one. Everything therefore samples at one
/// thread; thread scaling is measured in the traced run (api.scaling_2t,
/// api.scaling_nproc, writer.scaling_nproc).
constexpr std::size_t kRunThreads = 1;
/// Shots per CLI invocation: about 50 ms of b8 output, so each
/// sub-window holds dozens of invocations.
constexpr std::size_t kCliShots = 200'000;
/// Served classes: 1,000-shot small requests; bulk requests of 250,000
/// d9 detection shots (91 B each, 22.75 MB per response).
constexpr std::size_t kSmallShots = 1000;
constexpr std::size_t kBulkShots = 250'000;
/// Bulk response size the traced runs' served windows aim for.
constexpr std::size_t kProbeBulkBytes = 6'000'000;
/// The Fig. 3c family's sampling cost is multimodal across draws: seeds
/// 1-8 give expression nnz of about 5.4k, 90k or 174k and 1-thread
/// sampling rates from 0.04 to 2.7 M shots/s, so a circuit drawn from
/// each run's seed would make run-to-run spread meaningless. Every run
/// samples the draw from family seed 1 (184,590 symbols, nnz 5,321);
/// the run's seed drives the sampling seeds.
constexpr std::uint64_t kFig3CircuitSeed = 1;
/// Set-up passes per qec_d9_detect run; fig3_layered sets up cold for
/// the first half of its window instead.
constexpr int kSetupPasses = 25;
/// Session runs of the peak-RSS probe (see probe_peak_rss_mb).
constexpr int kProbeRuns = 3;
/// Served set-ups per run: fresh servers, the last one measured.
constexpr int kServedSetups = 3;
constexpr std::size_t kMinSmallRequests = 1000;
/// The host shares its CPUs with other tenants, whose load comes and
/// goes within seconds. Each window is cut into this many equal parts
/// and every end-to-end figure is the median over the parts, so a burst
/// of contention shorter than about two parts moves no metric.
constexpr int kSubWindows = 5;

/// One completed operation of a measurement window.
struct Op {
  double end_s = 0;       ///< completion, seconds from the window start
  double latency_ms = 0;
  double busy_s = 0;      ///< wall time its shots count against
  double cpu_s = 0;       ///< CPU time of the process doing the work
  double shots = 0;
};

/// A measurement window: its operations, and for the served workload
/// (concurrent clients) the bulk shots as they arrived.
struct Window {
  double seconds = 0;
  std::vector<Op> ops;
  bool concurrent = false;
  std::vector<std::pair<double, double>> bulk;  ///< (seconds, shots)
};

/// Adds the end-to-end metrics: set-up and peak RSS as given, the rest
/// as medians over the window's sub-windows.
///
/// For one closed-loop client (the in-process and CLI workloads) the
/// gated figures are CPU-time based: CPU time is not charged while the
/// hypervisor runs other tenants, which moved the same figures measured
/// in wall time by up to 40% between runs. Wall-time throughput and
/// latency are printed beside them. The concurrent served clients share
/// a server whose per-request CPU time is not observable, so their
/// figures are wall time, plus small requests and bulk shots per second.
void report_end_to_end(Report& report, double setup_s, const Window& w,
                       double peak_rss_mb, const std::string& op_name) {
  const double part = w.seconds / kSubWindows;
  std::vector<double> shots_per_s, p50, p99, shots_per_cpu_s, p50_cpu,
      p99_cpu, requests, bulk_per_s;
  std::size_t n = 0;
  for (int k = 0; k < kSubWindows; ++k) {
    const double lo = k * part;
    const double hi = k + 1 == kSubWindows ? 1e300 : lo + part;
    std::vector<double> latency, cpu_ms;
    double shots = 0, busy = 0, cpu = 0, bulk = 0;
    for (const Op& op : w.ops) {
      if (op.end_s >= lo && op.end_s < hi) {
        latency.push_back(op.latency_ms);
        cpu_ms.push_back(op.cpu_s * 1e3);
        shots += op.shots;
        busy += op.busy_s;
        cpu += op.cpu_s;
      }
    }
    for (const auto& [t, shots_in] : w.bulk) {
      bulk += t >= lo && t < hi ? shots_in : 0;
    }
    n += latency.size();
    p50.push_back(percentile(latency, 50));
    p99.push_back(percentile(latency, 99));
    p50_cpu.push_back(percentile(cpu_ms, 50));
    p99_cpu.push_back(percentile(cpu_ms, 99));
    shots_per_cpu_s.push_back(cpu > 0 ? shots / cpu : 0);
    requests.push_back(static_cast<double>(latency.size()) / part);
    bulk_per_s.push_back(bulk / part);
    shots_per_s.push_back(w.concurrent ? (shots + bulk) / part
                                       : (busy > 0 ? shots / busy : 0));
  }
  report.note("latency: " + std::to_string(n) + " " + op_name + " in " +
              std::to_string(kSubWindows) + " sub-windows, about " +
              std::to_string(tail_count(n / kSubWindows, 99)) +
              " beyond p99 in each");
  report.metric("setup_s", setup_s, "s");
  if (w.concurrent) {
    report.metric("shots_per_s", median(shots_per_s), "shots/s");
    report.metric("p50_ms", median(p50), "ms");
    report.metric("p99_ms", median(p99), "ms");
    report.metric("requests_per_s", median(requests), "req/s");
    report.metric("bulk_shots_per_s", median(bulk_per_s), "shots/s");
  } else {
    std::ostringstream wall;
    wall << "wall time: shots_per_s = " << median(shots_per_s)
         << " shots/s, p50_ms = " << median(p50)
         << " ms, p99_ms = " << median(p99) << " ms";
    report.note(wall.str());
    report.metric("shots_per_cpu_s", median(shots_per_cpu_s), "shots/cpu-s");
    report.metric("p50_cpu_ms", median(p50_cpu), "cpu-ms");
    report.metric("p99_cpu_ms", median(p99_cpu), "cpu-ms");
  }
  report.metric("peak_rss_mb", peak_rss_mb, "MB");
}

/// Runs `op(i, done)` back to back until `seconds` have passed (at
/// least once). `op` returns the shots it delivered and may set
/// done.busy_s and done.cpu_s (else its latency and this process's CPU
/// time count); it throws on failure.
template <typename F>
Window op_loop(double seconds, Report& report, F&& op) {
  Window w;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i == 0 || seconds_since(start) < seconds; ++i) {
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    Op done;
    bool ok = true;
    try {
      done.shots = static_cast<double>(op(i, done));
    } catch (const std::exception& e) {
      ok = false;
      report.note(std::string("operation failed: ") + e.what());
    }
    report.op(ok);
    if (ok) {
      done.end_s = seconds_since(start);
      done.latency_ms = seconds_since(t0) * 1e3;
      if (done.busy_s == 0) {
        done.busy_s = done.latency_ms / 1e3;
      }
      if (done.cpu_s == 0) {
        done.cpu_s = process_cpu_s() - cpu0;
      }
      w.ops.push_back(done);
    }
  }
  w.seconds = seconds_since(start);
  return w;
}

std::vector<double> exact_marginals(const symphase::CompiledSampler& cs,
                                    bool detect) {
  std::vector<double> p;
  if (detect) {
    for (std::size_t d = 0; d < cs.num_detectors(); ++d) {
      p.push_back(cs.detector_probability(d));
    }
    for (std::size_t k = 0; k < cs.num_observables(); ++k) {
      p.push_back(cs.observable_probability(k));
    }
  } else {
    for (std::size_t m = 0; m < cs.num_measurements(); ++m) {
      p.push_back(cs.outcome_probability(m));
    }
  }
  return p;
}

void check_marginals(Report& report, const SimulatorSession& session,
                     bool detect, const PopcountSink& sink) {
  std::string detail;
  const std::size_t bad = marginal_failures(
      sink.counts(), exact_marginals(session.compiled(), detect), sink.shots(),
      detail);
  report.check("per-row firing counts match exact marginals", bad == 0,
               detail);
}

/// Same seed at 1 and nproc threads must give the same bits; a ragged
/// shot count spanning several fill windows exercises the tail mask.
void check_thread_invariance(Report& report, const SimulatorSession& session,
                             SampleTask task, std::size_t nproc,
                             std::uint64_t seed) {
  task.shots = symphase::kSampleShardBits * (2 * nproc + 1) + 777;
  task.seed = seed;
  PopcountSink one(true), many(true);
  session.run(task.with_threads(1), one);
  session.run(task.with_threads(nproc), many);
  std::ostringstream detail;
  detail << std::hex << one.hash() << " vs " << many.hash();
  report.check("checksum equal at 1 and " + std::to_string(nproc) + " threads",
               one.hash() == many.hash() && one.counts() == many.counts(),
               detail.str());
}

/// Peak resident set, in MB, of the in-process workload's task done once
/// in a fresh process (`perfbench rss-probe`). The measurement loop's own
/// peak is not steady: it depends on where glibc placed earlier
/// allocations, which moved with how the run was started and how long
/// it ran, so the same code read 48, 62 or 81 MB from run to run. A
/// fresh process making the same allocations in the same order always
/// ends with the same heap.
double probe_peak_rss_mb(const Options& opt) {
  ChildProcess child({std::filesystem::read_symlink("/proc/self/exe").string(),
                      "rss-probe", "--workload", opt.workload, "--seed",
                      std::to_string(opt.seed)},
                     true);
  std::string out;
  char buf[256];
  for (long n; (n = child.read_stdout(buf, sizeof buf)) > 0;) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  const int status = child.wait(120.0);
  if (!ChildProcess::ok(status) || out.empty()) {
    throw std::runtime_error("rss-probe exited with status " +
                             std::to_string(status));
  }
  return std::stod(out) / 1024.0;
}

ServedClass served_class(const TaskShape& shape, std::size_t shots,
                         std::size_t threads) {
  ServedClass c;
  c.shape = shape;
  c.shots = shots;
  c.threads = threads;
  return c;
}

/// Served window of a traced run: the workload's task as both request
/// classes (served_mixed passes its own mix), read back from the
/// server's timing summaries and counters. With `ab`, an untraced window
/// precedes the traced one and `overhead` gets their p50 ratio - 1.
ServiceLayers measure_service(const Options& opt, const ServedConfig& config,
                              std::size_t small_pool, std::size_t bulk_pool,
                              double window_s, bool ab, Report& report,
                              Tracer& tracer, double& overhead) {
  const ExpectedResponses small =
      expected_responses(config.small, mix_seed(opt.seed, 11), small_pool);
  const ExpectedResponses bulk =
      expected_responses(config.bulk, mix_seed(opt.seed, 12), bulk_pool);
  ServedSession session(opt, config, small, bulk, 0);
  report.check("served set-up requests answered correctly",
               session.setup_ok());
  ServedWindow plain;
  if (ab) {
    plain = session.run_window(window_s, false, nullptr);
    report.ops(plain.attempted, plain.failed);
  }
  const ServedWindow traced = session.run_window(window_s, true, &tracer);
  report.ops(traced.attempted, traced.failed);
  for (const std::string& why : {plain.first_failure, traced.first_failure}) {
    if (!why.empty()) {
      report.note("served failure: " + why);
    }
  }
  const ServerCounters counters = session.counters();
  report.check("stats json=1 counters readable", counters.ok);
  report.check("server drained and exited 0", session.stop());

  const auto p50 = [](const std::vector<StageTimes>& v,
                      double StageTimes::*field) {
    std::vector<double> x;
    for (const StageTimes& t : v) {
      x.push_back(t.*field);
    }
    return median(x);
  };
  ServiceLayers s;
  s.queue_ms = p50(traced.small_stages, &StageTimes::queue);
  // The window's requests all hit the session cache, whose lookup sits at
  // the summary's 1 us resolution: report the mean, not the median.
  double compile_sum = 0;
  for (const StageTimes& t : traced.small_stages) {
    compile_sum += t.compile;
  }
  s.compile_ms = traced.small_stages.empty()
                     ? 0
                     : compile_sum / static_cast<double>(
                                         traced.small_stages.size());
  s.execute_ms = p50(traced.small_stages, &StageTimes::execute);
  s.emit_ms = p50(traced.small_stages, &StageTimes::emit);
  s.bulk_execute_ms = p50(traced.bulk_stages, &StageTimes::execute);
  s.bulk_emit_ms = p50(traced.bulk_stages, &StageTimes::emit);
  s.fused_frac = counters.completed > 0
                     ? counters.fused_requests / counters.completed
                     : 0;
  s.compiles = counters.compiles;
  s.net_outside_ms = median(traced.frame_outside_ms);
  s.http_outside_ms = median(traced.http_outside_ms);
  overhead = ab && !plain.small_ms.empty()
                 ? median(traced.small_ms) / median(plain.small_ms) - 1.0
                 : 0;
  return s;
}

/// Traced run of an in-process or CLI workload: every in-process layer
/// on the workload's task, then a served window with that task as both
/// request classes.
void traced_run(const Options& opt, const LayerTask& task, Report& report,
                Tracer& tracer) {
  const LayerResults layers =
      measure_layers(opt, task, 0.7 * opt.seconds, report, tracer);
  const SimulatorSession session(symphase::parse_circuit(task.shape.text));
  const std::size_t bytes_per_shot = b8_bytes_per_shot(
      session.record_bits(task.shape.target == SampleTarget::kMeasurements
                              ? SampleTask::measurements(1)
                              : SampleTask::detection_events(1)));
  ServedConfig config;
  config.small = served_class(task.shape, kSmallShots, 0);
  config.bulk = served_class(
      task.shape, std::max<std::size_t>(kProbeBulkBytes / bytes_per_shot, 1),
      1);
  double unused = 0;
  const ServiceLayers service = measure_service(
      opt, config, 8, 1, 0.3 * opt.seconds, false, report, tracer, unused);
  report_layers(report, layers, service);
}

/// The task of qec_d9_detect or fig3_layered.
TaskShape in_process_shape(const std::string& workload) {
  if (workload == "qec_d9_detect") {
    return {surface_d9_circuit().to_text(), SampleTarget::kDetectionEvents};
  }
  if (workload == "fig3_layered") {
    return {fig3_circuit(kFig3CircuitSeed).to_text(),
            SampleTarget::kMeasurements};
  }
  throw std::invalid_argument("not an in-process workload: " + workload);
}

}  // namespace

std::string d3_corpus_path(const Options& opt) {
  return opt.data_dir + "/surface_d3_r3_noisy.stim";
}

// ---- qec_d9_detect and fig3_layered ------------------------------------

long rss_probe_kb(const std::string& workload, std::uint64_t seed) {
  const TaskShape shape = in_process_shape(workload);
  SampleTask task = shape.target == SampleTarget::kDetectionEvents
                        ? SampleTask::detection_events(kRunShots)
                        : SampleTask::measurements(kRunShots);
  task.num_threads = kRunThreads;
  const SimulatorSession session(symphase::parse_circuit(shape.text));
  session.prepare(task);
  PopcountSink sink;
  for (int i = 0; i < kProbeRuns; ++i) {
    task.seed = mix_seed(seed, static_cast<std::uint64_t>(i));
    session.run(task, sink);
  }
  return self_peak_rss_kb();
}

void run_qec_d9_detect(const Options& opt, Report& report, Tracer& tracer) {
  const TaskShape shape = in_process_shape(opt.workload);
  if (opt.trace) {
    traced_run(opt, {shape, false, true}, report, tracer);
    return;
  }
  SampleTask task = SampleTask::detection_events(kRunShots);
  task.num_threads = kRunThreads;

  std::vector<double> setup;
  std::unique_ptr<SimulatorSession> session;
  for (int k = 0; k < kSetupPasses; ++k) {
    const Clock::time_point t0 = Clock::now();
    auto fresh =
        std::make_unique<SimulatorSession>(symphase::parse_circuit(shape.text));
    fresh->prepare(task);
    setup.push_back(seconds_since(t0));
    session = std::move(fresh);
  }

  PopcountSink sink;
  const Window w = op_loop(opt.seconds, report, [&](std::uint64_t i, Op&) {
    task.seed = mix_seed(opt.seed, i);
    session->run(task, sink);
    return task.shots;
  });
  const double rss_mb = probe_peak_rss_mb(opt);
  check_marginals(report, *session, true, sink);
  check_thread_invariance(report, *session, task, opt.nproc,
                          mix_seed(opt.seed, 99));
  report_end_to_end(report, median(setup), w, rss_mb,
                    "session runs of 2^16 shots");
}

void run_fig3_layered(const Options& opt, Report& report, Tracer& tracer) {
  const TaskShape shape = in_process_shape(opt.workload);
  if (opt.trace) {
    traced_run(opt, {shape, false, true}, report, tracer);
    return;
  }
  SampleTask task = SampleTask::measurements(kRunShots);
  task.num_threads = kRunThreads;

  // The first half of the window sets up cold (parse + Algorithm 1
  // Initialization, about 1.8 s each), the second half samples.
  std::vector<double> setup;
  std::unique_ptr<SimulatorSession> session;
  const Clock::time_point start = Clock::now();
  while (setup.size() < 3 || seconds_since(start) < 0.5 * opt.seconds) {
    const Clock::time_point t0 = Clock::now();
    auto fresh =
        std::make_unique<SimulatorSession>(symphase::parse_circuit(shape.text));
    fresh->prepare(task);
    setup.push_back(seconds_since(t0));
    session = std::move(fresh);
  }

  PopcountSink sink;
  const Window w =
      op_loop(0.5 * opt.seconds, report, [&](std::uint64_t i, Op&) {
        task.seed = mix_seed(opt.seed, i);
        session->run(task, sink);
        return task.shots;
      });
  const double rss_mb = probe_peak_rss_mb(opt);
  check_marginals(report, *session, false, sink);
  check_thread_invariance(report, *session, task, opt.nproc,
                          mix_seed(opt.seed, 99));
  report_end_to_end(report, median(setup), w, rss_mb,
                    "session runs of 2^16 shots");
}

// ---- cli_b8 ------------------------------------------------------------

namespace {

/// Captures the b8 bytes of the first delivered chunk, then cancels the
/// run through the public cancel flag.
class FirstChunkSink final : public symphase::SampleSink {
 public:
  FirstChunkSink(std::ostream& out, std::atomic<bool>& cancel)
      : writer_(out, symphase::SampleFormat::kB8), cancel_(cancel) {}
  void begin(const symphase::SampleStreamInfo& info) override {
    writer_.begin(info);
  }
  void consume(const symphase::SampleChunk& chunk) override {
    if (!cancel_.exchange(true)) {
      writer_.consume(chunk);
    }
  }
  void end() override { writer_.end(); }

 private:
  symphase::WriterSink writer_;
  std::atomic<bool>& cancel_;
};

std::string first_shard_b8(const SimulatorSession& session,
                           const SampleTask& task) {
  std::ostringstream out;
  std::atomic<bool> cancel{false};
  FirstChunkSink sink(out, cancel);
  try {
    session.run(task, sink, &cancel);
  } catch (const symphase::TaskCancelled&) {
  }
  return out.str();
}

}  // namespace

void run_cli_b8(const Options& opt, Report& report, Tracer& tracer) {
  const std::string path = d3_corpus_path(opt);
  const TaskShape shape{read_file(path), SampleTarget::kMeasurements};
  if (opt.trace) {
    traced_run(opt, {shape, true, false}, report, tracer);
    return;
  }
  const SimulatorSession session(symphase::parse_circuit(shape.text));
  const std::size_t bytes_per_shot =
      b8_bytes_per_shot(session.circuit().num_measurements());
  const std::size_t head_bytes = symphase::kSampleShardBits * bytes_per_shot;

  struct Invocation {
    std::uint64_t seed = 0;
    std::string head;
  };
  std::vector<Invocation> runs;
  std::vector<double> first_byte_s;
  std::vector<double> rss_kb;  // each invocation's peak
  std::vector<char> buf(1 << 20);
  const Window w = op_loop(opt.seconds, report, [&](std::uint64_t i,
                                                    Op& done) {
    Invocation inv;
    inv.seed = mix_seed(opt.seed, i);
    const Clock::time_point t0 = Clock::now();
    ChildProcess child({opt.cli_path, "sample", path, "--shots",
                        std::to_string(kCliShots), "--seed",
                        std::to_string(inv.seed), "--format", "b8",
                        "--threads", std::to_string(kRunThreads)},
                       true);
    std::uint64_t bytes = 0;
    long hwm_kb = 0;
    Clock::time_point first = t0;
    Clock::time_point polled = t0;
    while (true) {
      const long n = child.read_stdout(buf.data(), buf.size());
      if (n <= 0) {
        break;
      }
      const Clock::time_point now = Clock::now();
      if (bytes == 0) {
        first = now;
      }
      // VmHWM only grows, so sampling it while output streams (the
      // streaming CLI's memory is flat after set-up) finds its peak.
      if (bytes == 0 || seconds_between(polled, now) > 0.01) {
        hwm_kb = std::max(hwm_kb, peak_rss_kb(child.pid()));
        polled = now;
      }
      const std::size_t keep = std::min<std::size_t>(
          static_cast<std::size_t>(n), head_bytes - std::min<std::size_t>(
                                                        head_bytes, bytes));
      inv.head.append(buf.data(), keep);
      bytes += static_cast<std::uint64_t>(n);
    }
    const Clock::time_point last = Clock::now();
    const int status = child.wait(60.0, &done.cpu_s);
    if (!ChildProcess::ok(status) || bytes != kCliShots * bytes_per_shot) {
      throw std::runtime_error("symphase sample exited with status " +
                               std::to_string(status) + " after " +
                               std::to_string(bytes) + " bytes, expected " +
                               std::to_string(kCliShots * bytes_per_shot));
    }
    first_byte_s.push_back(seconds_between(t0, first));
    rss_kb.push_back(static_cast<double>(hwm_kb));
    done.busy_s = seconds_between(first, last);
    runs.push_back(std::move(inv));
    return kCliShots;
  });

  std::size_t mismatched = 0;
  for (const Invocation& inv : runs) {
    SampleTask task = SampleTask::measurements(kCliShots);
    task.seed = inv.seed;
    mismatched += first_shard_b8(session, task) == inv.head ? 0 : 1;
  }
  report.check("first shard equals in-process SimulatorSession + WriterSink",
               mismatched == 0,
               std::to_string(mismatched) + " of " +
                   std::to_string(runs.size()) + " invocations differ");

  report_end_to_end(report, median(first_byte_s), w,
                    median(rss_kb) / 1024.0,
                    "CLI invocations of 200k shots");
}

// ---- served_mixed ------------------------------------------------------

void run_served_mixed(const Options& opt, Report& report, Tracer& tracer) {
  ServedConfig config;
  config.small = served_class(
      {read_file(d3_corpus_path(opt)), SampleTarget::kMeasurements},
      kSmallShots, 0);
  config.bulk = served_class(
      {surface_d9_circuit().to_text(), SampleTarget::kDetectionEvents},
      kBulkShots, 1);

  if (opt.trace) {
    const LayerResults in_process = measure_layers(
        opt, {config.bulk.shape, true, false}, 0.5 * opt.seconds, report,
        tracer);
    double overhead = 0;
    const ServiceLayers service = measure_service(
        opt, config, 32, 2, 0.25 * opt.seconds, true, report, tracer,
        overhead);
    LayerResults layers = in_process;
    layers.overhead_frac = overhead;
    report_layers(report, layers, service);
    return;
  }

  const ExpectedResponses small =
      expected_responses(config.small, mix_seed(opt.seed, 11), 32);
  const ExpectedResponses bulk =
      expected_responses(config.bulk, mix_seed(opt.seed, 12), 2);
  const std::size_t bulk_bytes_per_shot = bulk.bytes[0].size() / kBulkShots;

  std::vector<double> setup;
  std::unique_ptr<ServedSession> session;
  for (int k = 0; k < kServedSetups; ++k) {
    if (session) {
      report.check("server drained and exited 0", session->stop());
    }
    session = std::make_unique<ServedSession>(opt, config, small, bulk, k);
    setup.push_back(session->setup_s());
    report.check("served set-up requests answered correctly",
                 session->setup_ok());
  }
  const ServedWindow w = session->run_window(opt.seconds, false, nullptr);
  report.ops(w.attempted, w.failed);
  if (!w.first_failure.empty()) {
    report.note("served failure: " + w.first_failure);
  }
  const long rss_kb = session->server_peak_rss_kb();
  report.check("server drained and exited 0", session->stop());
  report.check("at least 1000 small requests measured",
               w.small_completed >= kMinSmallRequests,
               std::to_string(w.small_completed) + " completed");

  Window timeline;
  timeline.seconds = w.seconds;
  timeline.concurrent = true;
  for (std::size_t i = 0; i < w.small_ms.size(); ++i) {
    Op op;
    op.end_s = w.small_end_s[i];
    op.latency_ms = w.small_ms[i];
    op.shots = static_cast<double>(kSmallShots);
    timeline.ops.push_back(op);
  }
  for (const auto& [t, bytes] : w.bulk_frames) {
    timeline.bulk.emplace_back(t, static_cast<double>(bytes) /
                                      static_cast<double>(bulk_bytes_per_shot));
  }
  report_end_to_end(report, median(setup), timeline,
                    static_cast<double>(rss_kb) / 1024.0, "small requests");
}

}  // namespace perfbench
