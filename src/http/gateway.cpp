#include "http/gateway.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/trace.hpp"
#include "http/http_parser.hpp"
#include "http/json.hpp"
#include "service/errors.hpp"
#include "service/request.hpp"
#include "service/service.hpp"

namespace symphase {

namespace {

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 499: return "Client Closed Request";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    case 505: return "HTTP Version Not Supported";
    default: return "Error";
  }
}

/// The total error mapping promised in gateway.hpp / docs/gateway.md.
int error_http_status(ErrorCode code) {
  switch (code) {
    case ErrorCode::kQueueFull: return 503;
    case ErrorCode::kRateLimited: return 429;
    case ErrorCode::kDraining: return 503;
    case ErrorCode::kDeadlineExpired: return 504;
    case ErrorCode::kCancelled: return 499;  // nginx convention
    case ErrorCode::kBadCircuit: return 400;
    case ErrorCode::kInternal: return 500;
    case ErrorCode::kTimeout: return 408;
  }
  return 500;
}

std::string error_body(const ServiceError& error) {
  std::string body = "{\"error\":\"";
  body += error_code_name(error.code);
  body += "\",\"retryable\":";
  body += error.retryable ? "true" : "false";
  body += ",\"retry_after_ms\":";
  body += std::to_string(error.retry_after_ms);
  body += ",\"message\":\"";
  body += json_escape(error.message);
  body += "\"}\n";
  return body;
}

std::string simple_error_body(std::string_view name, std::string_view message) {
  std::string body = "{\"error\":\"";
  body += name;
  body += "\",\"retryable\":false,\"retry_after_ms\":0,\"message\":\"";
  body += json_escape(message);
  body += "\"}\n";
  return body;
}

/// Head for a fixed-length (non-streaming) response.
void append_response_head(std::string& out, int status,
                          std::string_view content_type, std::size_t body_size,
                          bool keep_alive, std::uint64_t retry_after_ms,
                          const char* allow) {
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += status_reason(status);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body_size);
  if (retry_after_ms != 0) {
    // Retry-After is whole seconds; round the hint up so clients never
    // come back before the server said they could.
    out += "\r\nRetry-After: ";
    out += std::to_string((retry_after_ms + 999) / 1000);
  }
  if (allow != nullptr) {
    out += "\r\nAllow: ";
    out += allow;
  }
  out += keep_alive ? "\r\nConnection: keep-alive" : "\r\nConnection: close";
  out += "\r\n\r\n";
}

/// Head for a chunked streaming response (sample/detect bytes). The
/// stage breakdown is only known once the stream finishes, so it rides
/// in a declared Server-Timing trailer instead of the head.
void append_stream_head(std::string& out, bool keep_alive,
                        std::uint64_t ticket) {
  out += "HTTP/1.1 200 OK\r\n"
         "Content-Type: application/octet-stream\r\n"
         "Transfer-Encoding: chunked\r\n"
         "Trailer: Server-Timing\r\n";
  if (ticket != 0) {
    out += "Symphase-Ticket: ";
    out += std::to_string(ticket);
    out += "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
}

void append_chunk(std::string& out, std::string_view payload) {
  char size_line[20];
  const int n = std::snprintf(size_line, sizeof size_line, "%zx\r\n",
                              payload.size());
  out.append(size_line, static_cast<std::size_t>(n));
  out.append(payload.data(), payload.size());
  out += "\r\n";
}

/// JSON body -> SampleRequest. Typed fields only (enum names are
/// validated here and re-rendered canonically), then a round trip
/// through the directive codec so both transports accept exactly the
/// same requests — validation parity with zero duplicated rules.
SampleRequest translate_json_request(const std::string& body, bool detect) {
  const JsonValue doc = parse_json(body);
  const JsonObject& object = doc.as_object();
  SampleRequest request =
      detect ? SampleRequest::detect("", 1024) : SampleRequest::sample("", 1024);
  for (const auto& [key, value] : object) {
    try {
      if (key == "circuit") {
        request.circuit_text = value.as_string();
      } else if (key == "digest") {
        request.digest = value.as_string();
      } else if (key == "shots") {
        request.task.shots = value.as_u64();
      } else if (key == "seed") {
        request.task.seed = value.as_u64();
      } else if (key == "threads") {
        request.task.num_threads = value.as_u64();
      } else if (key == "format") {
        request.format = sample_format_from_name(value.as_string());
      } else if (key == "backend") {
        request.task.backend = backend_from_name(value.as_string());
      } else if (key == "priority") {
        request.priority = priority_from_name(value.as_string());
      } else if (key == "deadline_ms") {
        request.deadline_ms = value.as_u64();
      } else if (key == "rows") {
        request.task.bit_selection.clear();
        for (const JsonValue& row : value.as_array()) {
          request.task.bit_selection.push_back(row.as_u64());
        }
      } else {
        throw std::invalid_argument("unknown field");
      }
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("field \"" + key + "\": " + e.what());
    }
  }
  return parse_request_payload(encode_request_payload(request));
}

std::uint64_t now_unix_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// HttpConnection

/// One HTTP/1.1 client on the shared poll loop. Parsing and routing run
/// on the poll thread; response frames for sample/detect arrive from
/// service workers through on_frame(). Cross-thread response state is
/// guarded by the base connection mutex.
class HttpConnection : public Connection,
                       public std::enable_shared_from_this<HttpConnection> {
 public:
  HttpConnection(HttpGateway& gateway, ConnectionHost& host, Socket socket,
                 std::uint64_t client_id)
      : Connection(host, std::move(socket), client_id),
        gateway_(gateway),
        parser_(HttpParserLimits{gateway.options().max_head_bytes,
                                 gateway.options().max_body_bytes}) {
    gateway_.connections_total_->inc();
    gateway_.connections_active_->add(1);
  }

  ~HttpConnection() override { gateway_.connections_active_->add(-1); }

  Clock::time_point next_deadline() override {
    return std::min(header_deadline_, drain_deadline_);
  }

  void on_deadline() override {
    const Clock::time_point now = Clock::now();
    if (header_deadline_ != kNoConnDeadline && now >= header_deadline_) {
      // Slow-loris: the client has been sitting mid-request too long.
      header_deadline_ = kNoConnDeadline;
      send_simple(HttpGateway::Endpoint::kOther, 408, "application/json",
                  simple_error_body("timeout", "request not received in time"),
                  false, now, "", "");
    }
    if (drain_deadline_ != kNoConnDeadline && now >= drain_deadline_) {
      drain_deadline_ = kNoConnDeadline;
      const std::lock_guard<std::mutex> lock(mutex_);
      if (busy_) {
        // Grace expired mid-stream: the in-flight response always
        // finishes, but the connection must not return to keep-alive
        // afterwards — on_frame's last-frame path sees the cleared
        // flag and retires it, so the server's drain completes.
        resp_keep_alive_ = false;
      } else {
        read_done_ = true;  // Idle during drain past the grace: retire.
      }
    }
  }

  void on_loop_tick() override {
    if (host_.host_draining() && !drain_armed_) {
      drain_armed_ = true;
      drain_deadline_ =
          Clock::now() +
          std::chrono::milliseconds(gateway_.options().drain_grace_ms);
    }
    pump();
  }

 protected:
  bool on_bytes(std::string_view bytes) override {
    parser_.feed(bytes);
    pump();
    return true;  // Closure is signalled via read_done_, not the return.
  }

  bool wants_read_locked() const override { return !busy_; }

  /// Keep-alive connections stay; drain lingering is bounded by the
  /// grace deadline above, not by the base's immediate-on-drain rule.
  bool retire_when_idle_locked() const override { return read_done_; }

 private:
  using Endpoint = HttpGateway::Endpoint;

  /// Parses and dispatches as many buffered requests as possible.
  /// Requests behind a streaming response wait (busy_); the poll loop
  /// re-enters here from on_loop_tick() once the stream finishes.
  void pump() {
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!open_ || read_done_ || busy_) {
          break;
        }
      }
      HttpRequest request;
      if (!parser_.next(request)) {
        break;
      }
      handle_request(std::move(request));
    }
    if (parser_.failed() && !parse_error_sent_) {
      parse_error_sent_ = true;
      gateway_.parse_errors_total_->inc();
      send_simple(Endpoint::kOther, parser_.error_status(), "application/json",
                  simple_error_body("bad_request", parser_.error()), false,
                  Clock::now(), "", "");
    }
    // Arm the slow-loris timer only while idle-parsing: buffered
    // pipelined requests behind a long streaming response must not
    // count as a stalled client.
    bool busy;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      busy = busy_;
    }
    if (parser_.failed() || busy || !parser_.mid_request()) {
      header_deadline_ = kNoConnDeadline;
    } else if (header_deadline_ == kNoConnDeadline) {
      header_deadline_ =
          Clock::now() +
          std::chrono::milliseconds(gateway_.options().header_timeout_ms);
    }
  }

  void handle_request(HttpRequest request) {
    const Clock::time_point start = Clock::now();
    const std::string path =
        request.target.substr(0, request.target.find('?'));
    const bool draining = host_.host_draining();
    const bool keep = request.keep_alive && !draining;

    // Probe endpoints answer even during drain — a load balancer must
    // be able to see "draining" rather than a refused connection.
    if (path == "/healthz") {
      if (request.method != "GET") {
        send_method_not_allowed(Endpoint::kHealthz, "GET", request, start,
                                keep);
        return;
      }
      const ServiceHealth health = gateway_.service_.health();
      send_simple(Endpoint::kHealthz, health.accepting ? 200 : 503,
                  "application/json", health.to_json(), keep, start,
                  request.method, request.target);
      return;
    }
    if (path == "/metrics") {
      if (request.method != "GET") {
        send_method_not_allowed(Endpoint::kMetrics, "GET", request, start,
                                keep);
        return;
      }
      send_simple(Endpoint::kMetrics, 200,
                  "text/plain; version=0.0.4; charset=utf-8",
                  gateway_.registry_.scrape(), keep, start, request.method,
                  request.target);
      return;
    }
    if (path == "/v1/trace") {
      // Answers during drain like /metrics: the trace of a misbehaving
      // shutdown is exactly what an operator wants to pull. Draining
      // the ring consumes it — each GET returns only events recorded
      // since the previous one.
      if (request.method != "GET") {
        send_method_not_allowed(Endpoint::kTrace, "GET", request, start,
                                keep);
        return;
      }
      send_simple(Endpoint::kTrace, 200, "application/json",
                  trace::drain_json(), keep, start, request.method,
                  request.target);
      return;
    }
    if (draining) {
      const ServiceError error = make_error(
          ErrorCode::kDraining,
          "server is draining; this connection will close");
      send_simple(endpoint_for(path), error_http_status(error.code),
                  "application/json", error_body(error), false, start,
                  request.method, request.target);
      return;
    }
    if (path == "/v1/stats") {
      if (request.method != "GET") {
        send_method_not_allowed(Endpoint::kStats, "GET", request, start, keep);
        return;
      }
      send_simple(Endpoint::kStats, 200, "application/json",
                  gateway_.service_.stats().to_json(), keep, start,
                  request.method, request.target);
      return;
    }
    if (path == "/v1/sample" || path == "/v1/detect") {
      const bool detect = path == "/v1/detect";
      const Endpoint endpoint =
          detect ? Endpoint::kDetect : Endpoint::kSample;
      if (request.method != "POST") {
        send_method_not_allowed(endpoint, "POST", request, start, keep);
        return;
      }
      handle_submit(std::move(request), endpoint, detect, start, keep);
      return;
    }
    constexpr std::string_view kCancelPrefix = "/v1/cancel/";
    if (path.rfind(kCancelPrefix, 0) == 0) {
      if (request.method != "POST") {
        send_method_not_allowed(Endpoint::kCancel, "POST", request, start,
                                keep);
        return;
      }
      const std::string_view id_text =
          std::string_view(path).substr(kCancelPrefix.size());
      std::uint64_t ticket = 0;
      const auto [ptr, ec] = std::from_chars(
          id_text.data(), id_text.data() + id_text.size(), ticket);
      if (id_text.empty() || ec != std::errc() ||
          ptr != id_text.data() + id_text.size() || ticket == 0) {
        send_simple(Endpoint::kCancel, 400, "application/json",
                    simple_error_body("bad_request",
                                      "cancel target must be a ticket id"),
                    keep, start, request.method, request.target);
        return;
      }
      if (gateway_.service_.cancel(ticket)) {
        send_simple(Endpoint::kCancel, 200, "application/json",
                    "{\"cancelled\":true,\"ticket\":" +
                        std::to_string(ticket) + "}\n",
                    keep, start, request.method, request.target);
      } else {
        send_simple(Endpoint::kCancel, 404, "application/json",
                    simple_error_body(
                        "not_found",
                        "ticket unknown or request already finished"),
                    keep, start, request.method, request.target);
      }
      return;
    }
    send_simple(Endpoint::kOther, 404, "application/json",
                simple_error_body("not_found", "no such endpoint"), keep,
                start, request.method, request.target);
  }

  void handle_submit(HttpRequest http, Endpoint endpoint, bool detect,
                     Clock::time_point start, bool keep) {
    SampleRequest request;
    try {
      request = translate_json_request(http.body, detect);
    } catch (const std::invalid_argument& e) {
      send_simple(endpoint, 400, "application/json",
                  simple_error_body("bad_circuit", e.what()), keep, start,
                  http.method, http.target);
      return;
    }
    // The gateway always asks for the stage summary: it arrives as the
    // kFrameTiming final frame and becomes the Server-Timing trailer,
    // never part of the decoded body.
    request.want_timing = true;
    const std::uint64_t seq = next_seq_++;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      busy_ = true;
      // Workers hold their first frame until the scheduler ticket is
      // known, so the Symphase-Ticket header is always present.
      awaiting_ticket_ = true;
      headers_sent_ = false;
      resp_keep_alive_ = keep;
      resp_endpoint_ = endpoint;
      resp_method_ = http.method;
      resp_target_ = http.target;
      resp_start_ = start;
      resp_bytes_ = 0;
      pending_ticket_ = 0;
      inflight_.emplace(seq, 0);
    }
    auto self = shared_from_this();
    FrameFn emit = [self, seq](const FrameHeader& header,
                               std::string_view payload) {
      self->on_frame(seq, header, payload);
    };
    ServiceError rejection;
    const std::uint64_t ticket = gateway_.service_.try_submit(
        seq, std::move(request), std::move(emit), client_id(), &rejection,
        RequestTransport::kHttp);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      awaiting_ticket_ = false;
      if (ticket == 0) {
        inflight_.erase(seq);
        busy_ = false;
      } else {
        const auto it = inflight_.find(seq);
        if (it != inflight_.end()) {
          // Still streaming (the final frame can race try_submit()'s
          // return; if it won, the entry is already gone).
          it->second = ticket;
        }
        pending_ticket_ = ticket;
      }
    }
    space_.notify_all();  // Release workers parked on awaiting_ticket_.
    if (ticket == 0) {
      send_simple(endpoint, error_http_status(rejection.code),
                  "application/json", error_body(rejection), keep, start,
                  http.method, http.target, rejection.retry_after_ms);
    }
  }

  /// One response frame from the service (worker threads; the poll
  /// thread for queued-cancel errors). Translates frames to HTTP:
  /// first frame decides the status line, data frames become chunks,
  /// the final frame finishes the response and frees the pipeline.
  void on_frame(std::uint64_t seq, const FrameHeader& header,
                std::string_view payload) {
    bool wake = false;
    bool completed = false;
    int status = 200;
    Endpoint endpoint{};
    std::uint64_t bytes = 0;
    double seconds = 0;
    std::string method;
    std::string target;
    std::uint64_t ticket = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!host_.host_on_loop_thread()) {
        space_.wait(lock, [&] {
          return !open_ ||
                 (!awaiting_ticket_ &&
                  pending_out_locked() < host_.host_max_outbound());
        });
      }
      const bool last = (header.flags & kFrameLast) != 0;
      const bool error = (header.flags & kFrameError) != 0;
      const bool timing = (header.flags & kFrameTiming) != 0;
      if (open_) {
        if (error) {
          const ServiceError err = parse_error_payload(payload);
          status = error_http_status(err.code);
          if (!headers_sent_) {
            const std::string body = error_body(err);
            append_response_head(outbound_, status, "application/json",
                                 body.size(), resp_keep_alive_,
                                 err.retry_after_ms, nullptr);
            outbound_ += body;
            headers_sent_ = true;
            resp_bytes_ += body.size();
          } else {
            // The 200 header is already on the wire: terminate the
            // chunked body WITHOUT the final 0-chunk so the client
            // detects the truncation, and close the connection.
            resp_keep_alive_ = false;
          }
        } else {
          if (!headers_sent_) {
            append_stream_head(outbound_, resp_keep_alive_, pending_ticket_);
            headers_sent_ = true;
          }
          if (!timing && !payload.empty()) {
            append_chunk(outbound_, payload);
            resp_bytes_ += payload.size();
          }
          if (last) {
            // The declared Server-Timing trailer: the timing frame's
            // payload, verbatim. An empty trailer section is still a
            // valid chunked terminator if the frame had none.
            outbound_ += "0\r\n";
            if (timing && !payload.empty()) {
              outbound_ += "Server-Timing: ";
              outbound_.append(payload.data(), payload.size());
              outbound_ += "\r\n";
            }
            outbound_ += "\r\n";
          }
        }
        wake = true;
      }
      if (last) {
        inflight_.erase(seq);
        busy_ = false;
        if (!resp_keep_alive_) {
          read_done_ = true;
        }
        completed = open_;  // Log/meter only responses actually delivered.
        endpoint = resp_endpoint_;
        bytes = resp_bytes_;
        seconds = std::chrono::duration<double>(Clock::now() - resp_start_)
                      .count();
        method = resp_method_;
        target = resp_target_;
        ticket = pending_ticket_;
        wake = true;  // The loop must resume the pipeline (or retire).
      }
    }
    if (wake) {
      host_.host_wake();
    }
    if (completed) {
      gateway_.finish_request(endpoint, status, bytes, seconds, client_id(),
                              method, target, ticket, seq);
    }
  }

  /// Builds and enqueues a complete fixed-length response. Poll thread
  /// only (bypasses the outbound cap like every loop-thread send).
  void send_simple(Endpoint endpoint, int status, std::string_view content_type,
                   std::string body, bool keep, Clock::time_point start,
                   const std::string& method, const std::string& target,
                   std::uint64_t retry_after_ms = 0,
                   const char* allow = nullptr) {
    bool delivered = false;
    send_locked([&] {
      if (!open_) {
        return false;
      }
      append_response_head(outbound_, status, content_type, body.size(), keep,
                           retry_after_ms, allow);
      outbound_ += body;
      if (!keep) {
        read_done_ = true;
      }
      delivered = true;
      return true;
    });
    if (delivered) {
      gateway_.finish_request(
          endpoint, status, body.size(),
          std::chrono::duration<double>(Clock::now() - start).count(),
          client_id(), method, target, /*ticket=*/0, /*request_id=*/0);
    }
  }

  void send_method_not_allowed(Endpoint endpoint, const char* allow,
                               const HttpRequest& request,
                               Clock::time_point start, bool keep) {
    send_simple(endpoint, 405, "application/json",
                simple_error_body("method_not_allowed",
                                  std::string("use ") + allow),
                keep, start, request.method, request.target, 0, allow);
  }

  static Endpoint endpoint_for(const std::string& path) {
    if (path == "/v1/sample") return Endpoint::kSample;
    if (path == "/v1/detect") return Endpoint::kDetect;
    if (path == "/v1/stats") return Endpoint::kStats;
    if (path == "/v1/trace") return Endpoint::kTrace;
    if (path.rfind("/v1/cancel/", 0) == 0) return Endpoint::kCancel;
    return Endpoint::kOther;
  }

  HttpGateway& gateway_;

  // --- Poll-thread-only state ---
  HttpParser parser_;
  bool parse_error_sent_ = false;
  bool drain_armed_ = false;
  Clock::time_point header_deadline_ = kNoConnDeadline;
  Clock::time_point drain_deadline_ = kNoConnDeadline;
  std::uint64_t next_seq_ = 1;

  // --- Shared with service workers; guarded by the base mutex_ ---
  bool busy_ = false;            ///< A sample/detect response is streaming.
  bool awaiting_ticket_ = false; ///< try_submit() hasn't returned yet.
  bool headers_sent_ = false;
  bool resp_keep_alive_ = true;
  Endpoint resp_endpoint_ = Endpoint::kOther;
  std::string resp_method_;
  std::string resp_target_;
  Clock::time_point resp_start_{};
  std::uint64_t resp_bytes_ = 0;
  std::uint64_t pending_ticket_ = 0;
};

// ---------------------------------------------------------------------------
// HttpGateway

HttpGateway::HttpGateway(SamplingService& service, HttpGatewayOptions options)
    : service_(service), options_(std::move(options)) {
  connections_total_ = &registry_.counter(
      "http_connections_total", "HTTP connections accepted");
  connections_active_ =
      &registry_.gauge("http_connections_active", "Open HTTP connections");
  parse_errors_total_ = &registry_.counter(
      "http_parse_errors_total", "Requests rejected by the HTTP parser");
  response_bytes_total_ = &registry_.counter(
      "http_response_bytes_total", "Response bytes enqueued to HTTP clients");
  for (int i = 0; i <= static_cast<int>(Endpoint::kOther); ++i) {
    latency_[i] = &registry_.histogram(
        "http_request_duration_seconds",
        "HTTP request latency from parse to final response byte enqueued",
        Histogram::default_latency_bounds(),
        {{"endpoint", endpoint_name(static_cast<Endpoint>(i))}});
    for (std::size_t s = 0; s < kNumStatusCodes; ++s) {
      requests_[i][s] = &registry_.counter(
          "http_requests_total", "HTTP requests by endpoint and status code",
          {{"endpoint", endpoint_name(static_cast<Endpoint>(i))},
           {"code", std::to_string(kKnownStatusCodes[s])}});
    }
  }
  // The service keeps its own counters (ServiceStats/ServiceHealth);
  // expose them at scrape time instead of double-instrumenting the
  // hot paths.
  registry_.add_collector([this](std::string& out) {
    const auto header = [&out](std::string_view name, std::string_view help,
                               std::string_view type) {
      out.append("# HELP ").append(name).append(" ").append(help);
      out.append("\n# TYPE ").append(name).append(" ").append(type);
      out += '\n';
    };
    // A family's samples must be contiguous, and the table is in
    // stats-line order: render each family at its first row, followed
    // by the samples of all its rows.
    const ServiceStats s = service_.stats();
    for (const StatRow& first : kServiceStatRows) {
      const auto same_family = [&first](const StatRow& row) {
        return row.family == first.family;
      };
      if (std::ranges::find_if(kServiceStatRows, same_family) != &first) {
        continue;
      }
      header(first.family, first.help, first.type);
      for (const StatRow& row : kServiceStatRows) {
        if (same_family(row)) {
          MetricLabels labels;
          if (!row.label_name.empty()) {
            labels.emplace_back(row.label_name, row.label_value);
          }
          append_metric_line(out, row.family, labels, s.*row.field);
        }
      }
    }
    // Series that are not ServiceStats values.
    const auto single = [&](std::string_view name, std::string_view help,
                            std::string_view type, std::uint64_t value) {
      header(name, help, type);
      append_metric_line(out, name, {}, value);
    };
    const ServiceHealth h = service_.health();
    single("symphase_active_jobs", "Requests currently executing", "gauge",
           h.active_jobs);
    single("symphase_accepting",
           "1 while accepting new requests, 0 while draining", "gauge",
           h.accepting ? 1 : 0);
    single("symphase_trace_enabled",
           "1 while request-lifecycle trace recording is on", "gauge",
           trace::enabled() ? 1 : 0);
    single("symphase_trace_dropped_events_total",
           "Trace events overwritten in a ring buffer before a drain "
           "collected them",
           "counter", trace::dropped_events());
  });
}

HttpGateway::~HttpGateway() = default;

const char* HttpGateway::endpoint_name(Endpoint endpoint) {
  switch (endpoint) {
    case Endpoint::kSample: return "/v1/sample";
    case Endpoint::kDetect: return "/v1/detect";
    case Endpoint::kStats: return "/v1/stats";
    case Endpoint::kMetrics: return "/metrics";
    case Endpoint::kHealthz: return "/healthz";
    case Endpoint::kCancel: return "/v1/cancel";
    case Endpoint::kTrace: return "/v1/trace";
    case Endpoint::kOther: return "other";
  }
  return "other";
}

std::shared_ptr<Connection> HttpGateway::make_connection(
    ConnectionHost& host, Socket socket, std::uint64_t client_id) {
  return std::make_shared<HttpConnection>(*this, host, std::move(socket),
                                          client_id);
}

int HttpGateway::status_slot(int status) {
  for (std::size_t i = 0; i < kNumStatusCodes; ++i) {
    if (kKnownStatusCodes[i] == status) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void HttpGateway::finish_request(Endpoint endpoint, int status,
                                 std::uint64_t bytes, double seconds,
                                 std::uint64_t client_id,
                                 const std::string& method,
                                 const std::string& target,
                                 std::uint64_t ticket,
                                 std::uint64_t request_id) {
  const int slot = status_slot(status);
  if (slot >= 0) {
    requests_[static_cast<int>(endpoint)][slot]->inc();
  } else {
    // A status outside kKnownStatusCodes is unreachable today; keep the
    // counter total anyway via the cold registry path.
    registry_
        .counter("http_requests_total",
                 "HTTP requests by endpoint and status code",
                 {{"endpoint", endpoint_name(endpoint)},
                  {"code", std::to_string(status)}})
        .inc();
  }
  latency_[static_cast<int>(endpoint)]->observe(seconds);
  response_bytes_total_->inc(bytes);
  if (!options_.log_json && !options_.log_sink) {
    return;
  }
  std::string line = "{\"ts_ms\":";
  line += std::to_string(now_unix_ms());
  line += ",\"client\":";
  line += std::to_string(client_id);
  line += ",\"method\":\"";
  line += json_escape(method);
  line += "\",\"target\":\"";
  line += json_escape(target);
  line += "\",\"status\":";
  line += std::to_string(status);
  line += ",\"bytes\":";
  line += std::to_string(bytes);
  line += ",\"duration_ms\":";
  char duration[32];
  std::snprintf(duration, sizeof duration, "%.3f", seconds * 1e3);
  line += duration;
  if (request_id != 0) {
    // The submit-path correlation key: matches `"id"` on watchdog and
    // slow_request events and the `id` arg of trace spans.
    line += ",\"id\":";
    line += std::to_string(request_id);
  }
  if (ticket != 0) {
    line += ",\"ticket\":";
    line += std::to_string(ticket);
  }
  line += "}";
  if (options_.log_sink) {
    options_.log_sink(line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

}  // namespace symphase
