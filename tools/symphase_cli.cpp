// symphase — command-line front end to the library.
//
//   symphase sample  CIRCUIT [--shots N] [--seed S]    sample measurements
//   symphase detect  CIRCUIT [--shots N] [--seed S]    sample detectors (+ observables)
//   symphase analyze CIRCUIT [--max-expr K]            stats + symbolic expressions
//   symphase dem     CIRCUIT                           detector error model
//   symphase gen     FAMILY [options]                  emit a circuit (text format)
//   symphase serve   --stdio [--workers N]             framed sampling service loop
//   symphase serve   --listen H:P [--http H:P]         TCP server (+ HTTP gateway)
//   symphase stats   HOST:PORT [--json]                service counters snapshot
//   symphase health  HOST:PORT [--json]                readiness probe (exit 1 draining)
//
// CIRCUIT is a file in the Stim-style text format, or "-" for stdin.
// Samples print shot-major: one line of 0/1 per shot. `sample`/`detect`
// run through the SimulatorSession streaming API (src/api/), so output
// is produced shard-by-shard: peak memory is bounded by the shard size
// and thread count, not by --shots. `gen` families:
//   surface    --distance D --rounds R --p-data P --p-gate P --p-meas P
//   steane     --rounds R --p-data P --p-meas P
//   repetition --distance D --rounds R --p-data P --p-gate P --p-meas P
//   layered    --qubits N --layers L --cnot-pairs C --p-depolarize P
//
// Exit codes: 0 success, 1 runtime error, 2 usage error. Remote mode
// (--connect) distinguishes its failures so scripts can react: 3 the
// connection could not be established (even after --retries), 4 the
// server rejected the request (error frame; non-retryable, or retries
// exhausted), 5 the per-request --timeout-ms expired.

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "circuit/surface_code.hpp"
#include "common/trace.hpp"
#include "core/symphase.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "sampler/sample_writer.hpp"
#include "service/frame_session.hpp"
#include "service/request.hpp"
#include "service/service.hpp"
#include "service/wire.hpp"

namespace {

using namespace symphase;

[[noreturn]] void usage(const std::string& detail = {}) {
  if (!detail.empty()) {
    std::cerr << "error: " << detail << "\n\n";
  }
  std::cerr <<
      "usage:\n"
      "  symphase sample  CIRCUIT [--shots N] [--seed S] [--threads N]\n"
      "                   [--format 01|hex|b8|ptb64] [--backend symphase|frames]\n"
      "                   [--connect HOST:PORT [--priority high|normal|low]\n"
      "                   [--deadline-ms N] [--repeat N]\n"
      "                   [--retries N] [--retry-backoff-ms N] [--timeout-ms N]]\n"
      "  symphase detect  CIRCUIT [--shots N] [--seed S] [--threads N]\n"
      "                   [--format 01|hex|b8|ptb64|dets] [--backend symphase|frames]\n"
      "                   [--connect HOST:PORT [--priority high|normal|low]\n"
      "                   [--deadline-ms N] [--repeat N]\n"
      "                   [--retries N] [--retry-backoff-ms N] [--timeout-ms N]]\n"
      "  symphase analyze CIRCUIT [--max-expr K]\n"
      "  symphase dem     CIRCUIT\n"
      "  symphase gen     surface|repetition|steane|layered [options]\n"
      "  symphase health  HOST:PORT [--json]   (readiness probe of a\n"
      "                   serving instance: state=accepting|draining plus\n"
      "                   queue pressure; exit 1 when draining — a k8s\n"
      "                   readiness probe — and 3 when unreachable)\n"
      "  symphase stats   HOST:PORT [--json]   (service counters snapshot;\n"
      "                   --json prints one JSON object for tooling)\n"
      "  symphase serve   --stdio [--workers N] [--queue N] [--cache N]\n"
      "                   [--max-frame BYTES] [--rate-shots N]\n"
      "                   [--burst-shots N] [--max-shots N]\n"
      "                   [--exec-timeout-ms N] [--stall-warn-ms N]\n"
      "                   [--slow-request-ms N] [--trace] [--trace-out PATH]\n"
      "                   (framed requests\n"
      "                   on stdin, framed responses on stdout; see\n"
      "                   docs/service.md)\n"
      "  symphase serve   --listen HOST:PORT [--workers N] [--queue N]\n"
      "                   [--cache N] [--max-frame BYTES] [--max-clients N]\n"
      "                   [--rate-shots N] [--burst-shots N] [--max-shots N]\n"
      "                   [--exec-timeout-ms N] [--stall-warn-ms N]\n"
      "                   [--slow-request-ms N] [--trace] [--trace-out PATH]\n"
      "                   [--idle-timeout-ms N]\n"
      "                   [--port-file PATH]\n"
      "                   [--http HOST:PORT [--http-port-file PATH] [--log-json]]\n"
      "                   (multi-client TCP server on the same frames;\n"
      "                   port 0 picks a free port, announced on stderr and\n"
      "                   written to --port-file; SIGTERM drains gracefully,\n"
      "                   a second SIGTERM or SIGINT stops immediately;\n"
      "                   --exec-timeout-ms caps per-request execution\n"
      "                   wall-clock, --stall-warn-ms logs no-progress runs,\n"
      "                   --slow-request-ms logs a per-stage breakdown of\n"
      "                   slow requests, --trace records lifecycle spans\n"
      "                   (GET /v1/trace), --trace-out dumps them at exit,\n"
      "                   --idle-timeout-ms closes idle frame connections;\n"
      "                   --http adds the HTTP/JSON gateway with /metrics —\n"
      "                   see docs/gateway.md and docs/observability.md)\n"
      "\n"
      "remote exit codes: 3 connection failed, 4 rejected by server,\n"
      "5 timed out (see docs/service.md)\n";
  std::exit(2);
}

/// Trivial --key value option parser. Keys listed in `flags` are
/// value-less booleans (--json, --log-json): present = "1".
class Options {
 public:
  Options(int argc, char** argv, int first,
          const std::set<std::string>& flags = {}) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        usage("unexpected argument '" + key + "'");
      }
      if (flags.contains(key.substr(2))) {
        values_[key.substr(2)].assign(1, '1');
        continue;
      }
      if (i + 1 >= argc) {
        usage("missing value for " + key);
      }
      values_[key.substr(2)] = argv[++i];
    }
  }

  /// True when a boolean flag (see the constructor) was given.
  bool get_flag(const std::string& key) {
    consumed_.insert(key);
    return values_.contains(key);
  }

  /// Called once the command has read its options and before it does
  /// any work; rejects leftovers, so a mistyped flag never runs.
  void finish() const {
    for (const auto& [key, value] : values_) {
      if (!consumed_.contains(key)) {
        usage("unknown option --" + key);
      }
    }
  }

  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) {
    consumed_.insert(key);
    const auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    // Malformed numbers are usage errors (exit 2), not runtime errors:
    // std::stoull throws std::invalid_argument/std::out_of_range, and a
    // partial parse like "12x" is rejected explicitly. A leading minus
    // must be rejected too — stoull would silently wrap "-1" to 2^64-1.
    try {
      if (it->second.find_first_not_of("0123456789") != std::string::npos) {
        usage("invalid integer for --" + key + ": '" + it->second + "'");
      }
      std::size_t pos = 0;
      const std::uint64_t value = std::stoull(it->second, &pos);
      if (pos != it->second.size()) {
        usage("invalid integer for --" + key + ": '" + it->second + "'");
      }
      return value;
    } catch (const std::invalid_argument&) {
      usage("invalid integer for --" + key + ": '" + it->second + "'");
    } catch (const std::out_of_range&) {
      usage("integer out of range for --" + key + ": '" + it->second + "'");
    }
  }

  std::string get_string(const std::string& key, std::string fallback) {
    consumed_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? std::move(fallback) : it->second;
  }

  /// Reads an enum-valued flag through one of the library's name
  /// parsers (backend_from_name, ...); an unknown name is a usage error.
  template <typename Parse>
  auto get_named(const std::string& key, std::string fallback, Parse parse) {
    try {
      return parse(get_string(key, std::move(fallback)));
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
  }

  /// Presence check without consuming — for flags that are only valid
  /// in combination with another flag.
  bool has(const std::string& key) const { return values_.contains(key); }

  double get_double(const std::string& key, double fallback) {
    consumed_.insert(key);
    const auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    try {
      std::size_t pos = 0;
      const double value = std::stod(it->second, &pos);
      if (pos != it->second.size()) {
        usage("invalid number for --" + key + ": '" + it->second + "'");
      }
      return value;
    } catch (const std::invalid_argument&) {
      usage("invalid number for --" + key + ": '" + it->second + "'");
    } catch (const std::out_of_range&) {
      usage("number out of range for --" + key + ": '" + it->second + "'");
    }
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> consumed_;
};

Circuit load_circuit(const std::string& path) {
  if (path == "-") {
    std::ostringstream oss;
    oss << std::cin.rdbuf();
    return parse_circuit(oss.str());
  }
  return parse_circuit_file(path);
}

/// Raw circuit text for remote submission (the server parses it).
std::string load_circuit_text(const std::string& path) {
  std::ostringstream oss;
  if (path == "-") {
    oss << std::cin.rdbuf();
  } else {
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) {
      throw std::runtime_error("cannot read circuit file '" + path + "'");
    }
    oss << in.rdbuf();
  }
  return oss.str();
}

/// Shared option handling for the sampling subcommands: every knob of a
/// SampleTask is surfaced as a flag.
SampleTask task_from_options(SampleTarget target, Options& opt) {
  SampleTask task;
  task.target = target;
  task.shots = opt.get_u64("shots", 1024);
  task.seed = opt.get_u64("seed", 0);
  task.num_threads = opt.get_u64("threads", 0);
  task.backend = opt.get_named("backend", "symphase", backend_from_name);
  return task;
}

/// Flags that only mean something with --connect get their own usage
/// error, checked before the local run's finish() would call them
/// unknown.
void reject_remote_only_flags(const Options& opt) {
  for (const char* flag : {"priority", "deadline-ms", "repeat", "retries",
                           "retry-backoff-ms", "timeout-ms"}) {
    if (opt.has(flag)) {
      usage(std::string("--") + flag + " requires --connect HOST:PORT");
    }
  }
}

/// Exit code for a failed remote run (documented in usage()).
int remote_exit_code(ResilientClient::FailureKind failure) {
  switch (failure) {
    case ResilientClient::FailureKind::kConnect:
      return 3;
    case ResilientClient::FailureKind::kRejected:
      return 4;
    case ResilientClient::FailureKind::kTimeout:
      return 5;
    default:
      return 1;
  }
}

/// `sample`/`detect` over the TCP transport: ship the request, stream
/// the response chunks to stdout as they arrive. The single-request
/// path runs through ResilientClient, so --retries / --retry-backoff-ms
/// / --timeout-ms survive connection loss, retryable rejections
/// (queue_full, rate_limited, draining), and stalled servers. With
/// --repeat > 1 the circuit is registered once, the request repeats
/// over the single connection by digest, data is discarded, and one
/// per-request latency line prints instead — the measurement mode
/// behind tools/bench_service.sh (latency numbers must not hide
/// retries, so the resilience flags are rejected there).
int run_remote(const std::string& address, const std::string& path,
               RequestVerb verb, const SampleTask& task, SampleFormat format,
               Options& opt) {
  SampleRequest request;
  request.verb = verb;
  request.task = task;
  request.format = format;
  request.priority = opt.get_named("priority", "normal", priority_from_name);
  request.deadline_ms = opt.get_u64("deadline-ms", 0);
  const std::uint64_t repeat =
      std::max<std::uint64_t>(1, opt.get_u64("repeat", 1));
  RetryPolicy policy;
  policy.max_retries = opt.get_u64("retries", 0);
  policy.initial_backoff_ms =
      std::max<std::uint64_t>(1, opt.get_u64("retry-backoff-ms", 100));
  policy.max_backoff_ms =
      std::max<std::uint64_t>(policy.initial_backoff_ms, 5000);
  policy.request_timeout_ms = opt.get_u64("timeout-ms", 0);
  opt.finish();
  const std::string circuit_text = load_circuit_text(path);

  if (repeat > 1) {
    for (const char* flag : {"retries", "retry-backoff-ms", "timeout-ms"}) {
      if (opt.has(flag)) {
        usage(std::string("--") + flag +
              " does not combine with --repeat (latency mode measures "
              "single attempts)");
      }
    }
    std::unique_ptr<ServiceClient> client;
    try {
      client = std::make_unique<ServiceClient>(address);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 3;
    }
    request.digest = client->register_circuit(circuit_text);
    for (std::uint64_t i = 1; i <= repeat; ++i) {
      const auto start = std::chrono::steady_clock::now();
      client->submit(i, request);
      const MessageAssembler::Message reply = client->await(i);
      const auto elapsed = std::chrono::steady_clock::now() - start;
      if (reply.error) {
        std::cerr << "error: " << reply.error_text << '\n';
        return 4;
      }
      std::printf(
          "req_ms=%.3f bytes=%zu\n",
          std::chrono::duration<double, std::milli>(elapsed).count(),
          reply.payload.size());
    }
    return 0;
  }

  request.circuit_text = circuit_text;
  ResilientClient client(address, policy);
  const ResilientClient::Result result =
      client.run(request, [](std::string_view bytes) {
        std::cout.write(bytes.data(),
                        static_cast<std::streamsize>(bytes.size()));
      });
  if (result.ok) {
    std::cout.flush();
    return 0;
  }
  std::cerr << "error: " << result.detail;
  if (result.attempts > 1) {
    std::cerr << " (after " << result.attempts << " attempts)";
  }
  std::cerr << '\n';
  return remote_exit_code(result.failure);
}

int cmd_sample(const std::string& path, Options& opt) {
  const SampleTask task =
      task_from_options(SampleTarget::kMeasurements, opt);
  const SampleFormat format =
      opt.get_named("format", "01", sample_format_from_name);
  if (format == SampleFormat::kDets) {
    usage("dets format is for `symphase detect`");
  }
  const std::string connect = opt.get_string("connect", "");
  if (!connect.empty()) {
    return run_remote(connect, path, RequestVerb::kSample, task, format, opt);
  }
  reject_remote_only_flags(opt);
  opt.finish();
  const SimulatorSession session(load_circuit(path));
  WriterSink sink(std::cout, format);
  session.run(task, sink);
  return 0;
}

int cmd_detect(const std::string& path, Options& opt) {
  const SampleTask task =
      task_from_options(SampleTarget::kDetectionEvents, opt);
  const SampleFormat format =
      opt.get_named("format", "dets", sample_format_from_name);
  const std::string connect = opt.get_string("connect", "");
  if (!connect.empty()) {
    return run_remote(connect, path, RequestVerb::kDetect, task, format, opt);
  }
  reject_remote_only_flags(opt);
  opt.finish();
  const SimulatorSession session(load_circuit(path));
  if (session.num_detectors() == 0 && session.num_observables() == 0) {
    std::cerr << "error: circuit declares no detectors or observables; "
                 "use `symphase sample`\n";
    return 1;
  }
  // The detection record streams detectors first, observables after;
  // WriterSink picks the D/L split up from the stream metadata.
  WriterSink sink(std::cout, format);
  session.run(task, sink);
  return 0;
}

int cmd_analyze(const std::string& path, Options& opt) {
  const auto max_expr = opt.get_u64("max-expr", 32);
  opt.finish();
  const Circuit circuit = load_circuit(path);
  const CircuitStats stats = circuit.stats();
  const CompiledSampler sampler = CompiledSampler::compile(circuit);
  std::cout << "qubits:        " << stats.num_qubits << '\n'
            << "gates:         " << stats.num_gates << '\n'
            << "measurements:  " << stats.num_measurements << '\n'
            << "fault sites:   " << stats.num_noise_sites << '\n'
            << "detectors:     " << sampler.num_detectors() << '\n'
            << "observables:   " << sampler.num_observables() << '\n'
            << "symbols:       " << sampler.num_symbols() << '\n'
            << "expression nnz:" << ' ' << sampler.expression_nnz() << '\n';
  const std::size_t shown =
      std::min<std::size_t>(max_expr, sampler.num_measurements());
  for (std::size_t k = 0; k < shown; ++k) {
    std::cout << "m" << k << " = "
              << expression_to_string(sampler.expressions()[k])
              << (sampler.expressions()[k].was_random ? "   (coin)" : "")
              << '\n';
  }
  if (shown < sampler.num_measurements()) {
    std::cout << "... (" << sampler.num_measurements() - shown
              << " more; raise --max-expr)\n";
  }
  return 0;
}

int cmd_dem(const std::string& path, Options& opt) {
  opt.finish();
  const Circuit circuit = load_circuit(path);
  const CompiledSampler sampler = CompiledSampler::compile(circuit);
  std::cout << sampler.error_model().to_text();
  return 0;
}

/// Reads the service keys both serve transports share (pool, queue,
/// caches, frame cap, admission, watchdog limits) and turns tracing on
/// for --trace or --trace-out, whose path lands in `trace_out`. An
/// absent key keeps ServiceOptions' default.
ServiceOptions read_service_options(Options& opt, std::string& trace_out) {
  ServiceOptions service;
  AdmissionOptions& admission = service.admission;
  service.num_workers = std::max<std::uint64_t>(
      1, opt.get_u64("workers", service.num_workers));
  service.queue_capacity = std::max<std::uint64_t>(
      1, opt.get_u64("queue", service.queue_capacity));
  service.session_cache_capacity = std::max<std::uint64_t>(
      1, opt.get_u64("cache", service.session_cache_capacity));
  service.max_frame_payload = std::clamp<std::uint64_t>(
      opt.get_u64("max-frame", service.max_frame_payload), 1, 0xffffffffu);
  admission.client_shots_per_second =
      opt.get_u64("rate-shots", admission.client_shots_per_second);
  admission.client_burst_shots =
      opt.get_u64("burst-shots", admission.client_burst_shots);
  admission.max_shots_in_flight =
      opt.get_u64("max-shots", admission.max_shots_in_flight);
  service.exec_timeout_ms =
      opt.get_u64("exec-timeout-ms", service.exec_timeout_ms);
  service.stall_warn_ms = opt.get_u64("stall-warn-ms", service.stall_warn_ms);
  service.slow_request_ms =
      opt.get_u64("slow-request-ms", service.slow_request_ms);
  trace_out = opt.get_string("trace-out", "");
  if (opt.get_flag("trace") || !trace_out.empty()) {
    trace::set_enabled(true);
  }
  return service;
}

/// The framed stdio service loop: one FrameSession fed from stdin, its
/// frames written to stdout, interleaved across in-flight requests one
/// whole frame at a time. A protocol error (bad framing, in-flight id
/// reuse) ends the session with exit 1 once accepted work has drained;
/// per-request errors (bad directive, parse failure, unknown digest)
/// only fail that request.
int cmd_serve(Options& opt) {
  std::string trace_out;
  const ServiceOptions service_options = read_service_options(opt, trace_out);
  opt.finish();

  // The writer ships a frame and, for a final frame, releases its id
  // under the session's lock in one step. Declared before the service,
  // whose workers may still emit while it is destroyed.
  std::mutex mutex;
  std::map<std::uint64_t, std::uint64_t> inflight;
  const FrameFn emit = [&](const FrameHeader& header,
                           std::string_view payload) {
    const std::lock_guard<std::mutex> lock(mutex);
    write_frame(std::cout, header, payload);
    std::cout.flush();
    if ((header.flags & kFrameLast) != 0) {
      inflight.erase(header.request_id);
    }
  };
  SamplingService service(service_options);
  FrameSession session(service, mutex, inflight, /*may_block=*/true);
  std::vector<char> buffer(1 << 16);
  for (;;) {
    // POSIX read: returns as soon as *any* bytes are available, so an
    // interactive client gets its response without having to fill a
    // buffer or close stdin first (istream::read would block for the
    // full buffer).
    const ssize_t got = ::read(STDIN_FILENO, buffer.data(), buffer.size());
    if (got < 0 && errno == EINTR) {
      continue;
    }
    if (got <= 0 ||
        !session.feed({buffer.data(), static_cast<std::size_t>(got)}, emit)) {
      break;
    }
  }
  const std::string error = session.finish(emit);
  service.drain();
  if (!trace_out.empty()) {
    std::ofstream out(trace_out, std::ios::trunc);
    out << trace::drain_json();
  }
  if (!error.empty()) {
    std::cerr << "error: " << error << '\n';
    return 1;
  }
  return 0;
}

/// Signal targets for `serve --listen`. Everything the handlers touch
/// is async-signal-safe: SocketServer::drain()/shutdown() are an atomic
/// store plus a self-pipe write, and the escalation latch is a
/// lock-free atomic flag.
///
/// SIGTERM asks for a graceful drain — stop accepting, reject new work
/// with `draining`, finish and flush what is in flight, exit 0. A
/// second SIGTERM (or SIGINT at any point) escalates to the immediate
/// clean shutdown, for operators who cannot wait out long requests.
SocketServer* g_listen_server = nullptr;
std::atomic<bool> g_drain_requested{false};

extern "C" void handle_term_signal(int) {
  if (g_listen_server == nullptr) {
    return;
  }
  if (g_drain_requested.exchange(true)) {
    g_listen_server->shutdown();
  } else {
    g_listen_server->drain();
  }
}

extern "C" void handle_int_signal(int) {
  if (g_listen_server != nullptr) {
    g_listen_server->shutdown();
  }
}

/// The TCP transport: same service, same frames, many clients. Blocks
/// in the event loop until SIGTERM (drain) or SIGINT (stop).
int cmd_serve_listen(const std::string& address, Options& opt) {
  SocketServerOptions options;
  options.listen = address;
  std::string trace_out;
  options.service = read_service_options(opt, trace_out);
  options.idle_timeout_ms =
      opt.get_u64("idle-timeout-ms", options.idle_timeout_ms);
  options.max_connections = std::max<std::uint64_t>(
      1, opt.get_u64("max-clients", options.max_connections));
  const std::string port_file = opt.get_string("port-file", "");
  options.http_listen = opt.get_string("http", "");
  options.http.log_json = opt.get_flag("log-json");
  const std::string http_port_file = opt.get_string("http-port-file", "");
  if (options.http_listen.empty() &&
      (!http_port_file.empty() || options.http.log_json)) {
    usage("--http-port-file/--log-json require --http HOST:PORT");
  }
  opt.finish();

  // A bind failure throws out of the constructor into main()'s handler:
  // one clean "error: cannot listen on HOST:PORT: ..." line, exit 1,
  // and no "listening" announcement or port file was produced.
  const std::string http_listen = options.http_listen;
  SocketServer server(std::move(options));
  g_listen_server = &server;
  g_drain_requested.store(false);
  std::signal(SIGINT, handle_int_signal);
  std::signal(SIGTERM, handle_term_signal);

  // Announce the bound address — with port 0 this is where the chosen
  // port becomes known. --port-file is the machine-readable version:
  // written (then flushed) only after the bind succeeded, so a reader
  // that sees the file can connect immediately.
  const HostPort at = parse_host_port(address);
  std::cerr << "listening on " << (at.host.empty() ? "0.0.0.0" : at.host)
            << ":" << server.port() << std::endl;
  if (server.http_port() != 0) {
    const HostPort http_at = parse_host_port(http_listen);
    std::cerr << "http on " << (http_at.host.empty() ? "0.0.0.0" : http_at.host)
              << ":" << server.http_port() << std::endl;
  }
  const auto write_port_file = [&](const std::string& path,
                                   std::uint16_t port) {
    if (path.empty()) {
      return;
    }
    std::ofstream out(path, std::ios::trunc);
    out << port << '\n';
    out.flush();
    if (!out.good()) {
      g_listen_server = nullptr;
      throw std::runtime_error("cannot write port file '" + path + "'");
    }
  };
  write_port_file(port_file, server.port());
  write_port_file(http_port_file, server.http_port());
  const bool clean = server.run();
  g_listen_server = nullptr;
  if (!trace_out.empty()) {
    // Whatever /v1/trace did not already drain, written at shutdown —
    // the Perfetto-loadable record of the server's whole life.
    std::ofstream out(trace_out, std::ios::trunc);
    out << trace::drain_json();
  }
  return clean ? 0 : 1;
}

/// Readiness probe: prints the server's health line (or JSON object
/// with --json) and exits 0 only when the server is accepting. A
/// reachable-but-draining server exits 1 — `symphase health` is
/// directly usable as a k8s readiness probe, which must fail during a
/// graceful drain so traffic stops routing before the pod dies. An
/// unreachable server exits 3 (same code as a failed --connect).
int cmd_health(const std::string& address, Options& opt) {
  const bool json = opt.get_flag("json");
  opt.finish();
  try {
    ServiceClient client(address);
    const std::string reply = client.health(json);
    std::cout << reply;
    const bool draining = json ? reply.find("\"state\":\"draining\"") !=
                                     std::string::npos
                               : reply.find("state=draining") !=
                                     std::string::npos;
    return draining ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 3;
  }
}

/// Service counters snapshot; --json prints the machine-readable
/// rendering (one JSON object) for dashboards and scripts.
int cmd_stats(const std::string& address, Options& opt) {
  const bool json = opt.get_flag("json");
  opt.finish();
  try {
    ServiceClient client(address);
    std::cout << client.stats(json);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 3;
  }
}

int cmd_gen(const std::string& family, Options& opt) {
  if (family == "surface") {
    SurfaceCodeOptions sc;
    sc.distance = opt.get_u64("distance", 3);
    sc.rounds = opt.get_u64("rounds", 3);
    sc.data_depolarization = opt.get_double("p-data", 0.0);
    sc.gate_depolarization = opt.get_double("p-gate", 0.0);
    sc.measurement_flip_probability = opt.get_double("p-meas", 0.0);
    opt.finish();
    std::cout << surface_code_memory(sc).to_text();
    return 0;
  }
  if (family == "repetition") {
    RepetitionCodeOptions rc;
    rc.distance = opt.get_u64("distance", 3);
    rc.rounds = opt.get_u64("rounds", 3);
    rc.data_error_probability = opt.get_double("p-data", 0.0);
    rc.gate_error_probability = opt.get_double("p-gate", 0.0);
    rc.measurement_error_probability = opt.get_double("p-meas", 0.0);
    opt.finish();
    std::cout << repetition_code_memory(rc).to_text();
    return 0;
  }
  if (family == "steane") {
    SteaneCodeOptions st;
    st.rounds = opt.get_u64("rounds", 3);
    st.data_error_probability = opt.get_double("p-data", 0.0);
    st.measurement_error_probability = opt.get_double("p-meas", 0.0);
    opt.finish();
    std::cout << steane_code_memory(st).to_text();
    return 0;
  }
  if (family == "layered") {
    LayeredRandomCircuitOptions lc;
    lc.num_qubits = opt.get_u64("qubits", 100);
    lc.num_layers = opt.get_u64("layers", lc.num_qubits);
    lc.cnot_pairs_per_layer = opt.get_u64("cnot-pairs", 5);
    lc.depolarize_probability = opt.get_double("p-depolarize", 0.0);
    Rng rng(opt.get_u64("seed", 2024));
    opt.finish();
    std::cout << layered_random_circuit(lc, rng).to_text();
    return 0;
  }
  usage("unknown family '" + family + "'");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    usage();
  }
  const std::string command = argv[1];
  const std::string target = argv[2];
  try {
    if (command == "serve") {
      int code = 2;
      if (target == "--stdio") {
        Options opt(argc, argv, 3, {"trace"});
        code = cmd_serve(opt);
      } else if (target == "--listen") {
        if (argc < 4) {
          usage("serve --listen needs HOST:PORT");
        }
        Options opt(argc, argv, 4, {"log-json", "trace"});
        code = cmd_serve_listen(argv[3], opt);
      } else {
        usage("serve requires --stdio or --listen HOST:PORT");
      }
      return code;
    }
    Options opt(argc, argv, 3,
                command == "health" || command == "stats"
                    ? std::set<std::string>{"json"}
                    : std::set<std::string>{});
    int code = 2;
    if (command == "sample") {
      code = cmd_sample(target, opt);
    } else if (command == "detect") {
      code = cmd_detect(target, opt);
    } else if (command == "analyze") {
      code = cmd_analyze(target, opt);
    } else if (command == "dem") {
      code = cmd_dem(target, opt);
    } else if (command == "gen") {
      code = cmd_gen(target, opt);
    } else if (command == "health") {
      code = cmd_health(target, opt);
    } else if (command == "stats") {
      code = cmd_stats(target, opt);
    } else {
      usage("unknown command '" + command + "'");
    }
    // Commands that print with << (gen, analyze, dem, ...) leave their
    // output in the stream's buffer: a full disk or a closed file only
    // shows when it is flushed. WriterSink checks its own flushes.
    if (!std::cout.flush()) {
      std::cerr << "error: cannot write to standard output\n";
      return 1;
    }
    return code;
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
