#include "net/server.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "net/connection.hpp"
#include "net/socket.hpp"
#include "service/frame_session.hpp"

namespace symphase {

struct SocketServer::Impl : ConnectionHost {
  explicit Impl(SocketServerOptions opts)
      : options(std::move(opts)),
        listen_at(parse_host_port(options.listen)),
        listener(tcp_listen(listen_at)),
        bound_port(local_port(listener)),
        service(options.service) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
    }
    wake_read = pipe_fds[0];
    wake_write = pipe_fds[1];
    set_nonblocking(wake_read, true);
    set_nonblocking(wake_write, true);
    set_nonblocking(listener.fd(), true);
    if (!options.http_listen.empty()) {
      http_listener = tcp_listen(parse_host_port(options.http_listen));
      http_bound_port = local_port(http_listener);
      set_nonblocking(http_listener.fd(), true);
      gateway = std::make_unique<HttpGateway>(service, options.http);
      // One shared instrument path for both transports: the service's
      // timing observer feeds per-stage and per-transport histograms in
      // the gateway's registry, so frame/TCP requests show up on
      // /metrics exactly like HTTP ones. Wired before run() accepts
      // anything, as set_timing_observer requires.
      // The stage histograms cover the stages that partition a request
      // (every RequestStage before kTotal); kTotal goes to the histogram
      // of the request's transport.
      constexpr std::size_t kTotal =
          static_cast<std::size_t>(RequestStage::kTotal);
      MetricsRegistry& reg = gateway->metrics();
      std::string stage_help = "Per-request stage latency (";
      for (std::size_t i = 0; i < kTotal; ++i) {
        stage_help += (i == 0 ? "" : "|");
        stage_help += kRequestStageNames[i];
      }
      stage_help += ")";
      std::array<Histogram*, kTotal> stage_h{};
      for (std::size_t i = 0; i < kTotal; ++i) {
        stage_h[i] = &reg.histogram(
            "symphase_stage_duration_seconds", stage_help,
            Histogram::default_latency_bounds(),
            {{"stage", std::string(kRequestStageNames[i])}});
      }
      std::array<Histogram*, kNumRequestTransports> request_h{};
      for (std::size_t i = 0; i < kNumRequestTransports; ++i) {
        request_h[i] = &reg.histogram(
            "symphase_request_duration_seconds",
            "End-to-end request latency (acceptance to final frame) by "
            "submitting transport",
            Histogram::default_latency_bounds(),
            {{"transport", std::string(kRequestTransportNames[i])}});
      }
      service.set_timing_observer(
          [stage_h, request_h](const RequestTiming& t) {
            for (std::size_t i = 0; i < kTotal; ++i) {
              stage_h[i]->observe(t.seconds[i]);
            }
            request_h[static_cast<std::size_t>(t.transport)]->observe(
                t.seconds[kTotal]);
          });
    }
  }

  ~Impl() override {
    // Workers may still be finishing (and poking wake_write) until the
    // service member — declared last — destructs; only then close the
    // pipe.
    service.stop();
    if (wake_read >= 0) {
      ::close(wake_read);
    }
    if (wake_write >= 0) {
      ::close(wake_write);
    }
  }

  void wake() const {
    const char byte = 0;
    // Full pipe means a wakeup is already pending — exactly as good.
    (void)::write(wake_write, &byte, 1);
  }

  // --- ConnectionHost -----------------------------------------------
  SamplingService& host_service() override { return service; }
  void host_wake() override { wake(); }
  std::size_t host_max_outbound() const override {
    return options.max_outbound_buffer;
  }
  bool host_on_loop_thread() const override {
    return std::this_thread::get_id() ==
           loop_thread.load(std::memory_order_relaxed);
  }
  bool host_draining() const override { return draining; }

  SocketServerOptions options;
  HostPort listen_at;
  Socket listener;
  std::uint16_t bound_port;
  Socket http_listener;  ///< Invalid when HTTP is disabled.
  std::uint16_t http_bound_port = 0;
  /// HTTP connection factory + metrics. Declared before `service` so
  /// it is destroyed after it (emit lambdas into HTTP connections run
  /// until service.stop() joins the workers).
  std::unique_ptr<HttpGateway> gateway;
  int wake_read = -1;
  int wake_write = -1;
  std::atomic<bool> stop_requested{false};
  std::atomic<bool> drain_requested{false};
  bool draining = false;  ///< Loop-thread view of drain_requested.
  /// Next Connection::client_id; ids are never reused, so a
  /// reconnecting client starts a fresh rate bucket (the old one ages
  /// out of the admission LRU).
  std::uint64_t next_client_id = 1;
  bool loop_failed = false;  ///< poll() died; run() reports failure.
  /// The thread running run(); set before any connection exists.
  std::atomic<std::thread::id> loop_thread{};
  /// Poll-thread-only.
  std::vector<std::shared_ptr<Connection>> connections;
  /// Last member: destroyed first, joining workers while the wake pipe
  /// and options (which their emit lambdas touch) are still alive.
  SamplingService service;
};

namespace {

/// The frame-protocol connection: a FrameSession (the session rules
/// `serve --stdio` runs too) over the shared net/connection.hpp
/// machinery. What is left here is the transport: the outbound buffer
/// the session's frames go to, and the idle timeout. Its map of open
/// response streams is the base's inflight_, under the base's mutex_.
class FrameConnection : public Connection,
                        public std::enable_shared_from_this<FrameConnection> {
 public:
  FrameConnection(ConnectionHost& host, Socket socket,
                  std::uint64_t client_id, std::uint64_t idle_timeout_ms)
      : Connection(host, std::move(socket), client_id),
        idle_timeout_(std::chrono::milliseconds(idle_timeout_ms)),
        idle_enabled_(idle_timeout_ms != 0),
        last_activity_(Clock::now()),
        // The poll thread must never park on queue space.
        session_(host.host_service(), mutex_, inflight_,
                 /*may_block=*/false, client_id) {}

 protected:
  /// Idle-read timeout (SocketServerOptions::idle_timeout_ms): armed
  /// only while nothing is in flight — a slow *response* must never
  /// trip it, so enqueue_frame() restamps the clock when a final frame
  /// empties inflight_.
  Clock::time_point next_deadline() override {
    if (!idle_enabled_) {
      return kNoConnDeadline;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (read_done_ || !inflight_.empty()) {
      return kNoConnDeadline;
    }
    return last_activity_ + idle_timeout_;
  }

  void on_deadline() override {
    // Re-check under the lock: a request may have landed since the
    // poll loop sampled the deadline.
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (read_done_ || !inflight_.empty() ||
          Clock::now() < last_activity_ + idle_timeout_) {
        return;
      }
    }
    std::ostringstream oss;
    oss << "idle timeout: no request in "
        << std::chrono::duration_cast<std::chrono::milliseconds>(
               idle_timeout_)
               .count()
        << " ms; closing connection";
    emit_error_reply(emitter(), 0, make_error(ErrorCode::kTimeout, oss.str()));
    // Stop reading; the connection retires once the error frame flushed
    // (retire_when_idle_locked() — read_done_ — plus empty inflight_).
    const std::lock_guard<std::mutex> lock(mutex_);
    read_done_ = true;
  }

  bool on_bytes(std::string_view bytes) override {
    if (idle_enabled_) {
      const std::lock_guard<std::mutex> lock(mutex_);
      last_activity_ = Clock::now();
    }
    return session_.feed(bytes, emitter());
  }

  void on_read_end() override { session_.finish(emitter()); }

 private:
  /// The session's emitter. A submitted request holds it until its
  /// final frame, and through it this connection.
  FrameFn emitter() {
    return [self = shared_from_this()](const FrameHeader& header,
                                       std::string_view payload) {
      self->enqueue_frame(header, payload);
    };
  }

  /// Appends one encoded frame to the outbound buffer. Runs on service
  /// worker threads (and, for replies and queued-cancel error frames,
  /// the poll thread); backpressure lives in the shared send_locked(),
  /// under whose lock a final frame also releases its id.
  void enqueue_frame(const FrameHeader& header, std::string_view payload) {
    send_locked([&] {
      bool wake = false;
      if (open_) {
        outbound_ += encode_frame(header, payload);
        wake = true;
      }
      if ((header.flags & kFrameLast) != 0) {
        inflight_.erase(header.request_id);
        // The idle clock starts when the connection actually goes idle,
        // not when its last inbound byte arrived mid-stream.
        last_activity_ = Clock::now();
      }
      return wake;
    });
  }

  const Clock::duration idle_timeout_;
  const bool idle_enabled_;
  /// Last inbound byte or response completion (mutex_).
  Clock::time_point last_activity_;
  FrameSession session_;
};

}  // namespace

SocketServer::SocketServer(SocketServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

SocketServer::~SocketServer() { shutdown(); }

std::uint16_t SocketServer::port() const { return impl_->bound_port; }

std::uint16_t SocketServer::http_port() const { return impl_->http_bound_port; }

HttpGateway* SocketServer::gateway() { return impl_->gateway.get(); }

SamplingService& SocketServer::service() { return impl_->service; }

void SocketServer::shutdown() {
  impl_->stop_requested.store(true, std::memory_order_release);
  impl_->wake();
}

void SocketServer::drain() {
  impl_->drain_requested.store(true, std::memory_order_release);
  impl_->wake();
}

bool SocketServer::run() {
  Impl* impl = impl_.get();
  impl->loop_thread.store(std::this_thread::get_id(),
                          std::memory_order_relaxed);
  using Clock = Connection::Clock;
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Connection>> polled;
  while (!impl->stop_requested.load(std::memory_order_acquire)) {
    if (!impl->draining &&
        impl->drain_requested.load(std::memory_order_acquire)) {
      // Graceful drain: close the frame listener so the OS refuses new
      // connections (instead of parking them in the backlog of a
      // server that will never serve them), and flip the service so
      // new submissions on existing connections are rejected with a
      // structured `draining` frame. Accepted work keeps streaming.
      // The HTTP listener stays open: readiness probes must be able to
      // read "draining" (503 from /healthz) rather than a refused
      // connection; HTTP requests beyond the probe endpoints get 503 +
      // Connection: close, and idle HTTP connections retire after the
      // gateway's drain grace.
      impl->draining = true;
      impl->listener.close_fd();
      impl->service.begin_drain();
    }
    if (impl->draining && impl->connections.empty()) {
      // Drained dry: every in-flight response finished and flushed.
      // Checked before poll: a drain that finds no connection open
      // (SIGTERM after the last client left) would otherwise wait on
      // the wake pipe forever.
      break;
    }
    fds.clear();
    polled.clear();
    fds.push_back({impl->wake_read, POLLIN, 0});
    const bool room =
        impl->connections.size() < impl->options.max_connections;
    const bool accepting = !impl->draining && room;
    fds.push_back({accepting ? impl->listener.fd() : -1, POLLIN, 0});
    fds.push_back({impl->http_listener.valid() && room
                       ? impl->http_listener.fd()
                       : -1,
                   POLLIN, 0});
    Clock::time_point next_deadline = Connection::kNoConnDeadline;
    for (const auto& conn : impl->connections) {
      const short events = conn->poll_events();
      fds.push_back({events != 0 ? conn->fd() : -1, events, 0});
      polled.push_back(conn);
      next_deadline = std::min(next_deadline, conn->next_deadline());
    }

    int timeout_ms = -1;
    if (next_deadline != Connection::kNoConnDeadline) {
      const auto until = std::chrono::ceil<std::chrono::milliseconds>(
          next_deadline - Clock::now());
      timeout_ms = static_cast<int>(
          std::clamp<long long>(until.count(), 0, 60 * 1000));
    }
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
      if (errno == EINTR) {
        continue;
      }
      // A dead event loop must not masquerade as a clean shutdown —
      // run() reports failure so the CLI exits nonzero.
      std::fprintf(stderr, "error: poll: %s\n", std::strerror(errno));
      impl->loop_failed = true;
      break;
    }

    if ((fds[0].revents & POLLIN) != 0) {
      char drain[256];
      while (::read(impl->wake_read, drain, sizeof drain) > 0) {
      }
    }
    const auto accept_from = [&](Socket& listener, bool http) {
      for (;;) {
        errno = 0;
        Socket accepted = tcp_accept(listener);
        if (!accepted.valid()) {
          if (errno != 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
              errno != ECONNABORTED && errno != EINTR) {
            // Persistent accept failure (EMFILE, ENFILE, ENOMEM...):
            // the pending connection stays in the backlog, so the
            // listener polls readable forever. Back off instead of
            // spinning a core; fds freed by retiring connections let
            // the next round succeed.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
          break;
        }
        if (impl->connections.size() >= impl->options.max_connections) {
          continue;  // accepted and dropped: over capacity
        }
        set_nonblocking(accepted.fd(), true);
        const std::uint64_t client_id = impl->next_client_id++;
        if (http) {
          impl->connections.push_back(impl->gateway->make_connection(
              *impl, std::move(accepted), client_id));
        } else {
          impl->connections.push_back(std::make_shared<FrameConnection>(
              *impl, std::move(accepted), client_id,
              impl->options.idle_timeout_ms));
        }
      }
    };
    if ((fds[1].revents & POLLIN) != 0) {
      accept_from(impl->listener, false);
    }
    if ((fds[2].revents & POLLIN) != 0) {
      accept_from(impl->http_listener, true);
    }

    for (std::size_t c = 0; c < polled.size(); ++c) {
      const auto& conn = polled[c];
      const short revents = fds[c + 3].revents;
      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        conn->close();
        continue;
      }
      if ((revents & POLLOUT) != 0) {
        conn->handle_writable();
      }
      if ((revents & (POLLIN | POLLHUP)) != 0) {
        conn->handle_readable();
      }
    }

    // Protocol timers (slow-loris, drain grace) and deferred work
    // (HTTP pipelining resumes once a streaming response finished).
    const Clock::time_point now = Clock::now();
    for (const auto& conn : impl->connections) {
      if (conn->next_deadline() <= now) {
        conn->on_deadline();
      }
      conn->on_loop_tick();
    }

    // Retire connections that are finished (or were closed above):
    // reading done, no response stream open, nothing left to flush.
    // During a drain, idle frame connections retire without waiting
    // for the client's EOF — everything they could still send would
    // only be rejected, and run() must eventually return. (HTTP
    // connections bound their drain lingering with a grace deadline
    // instead, so probes still get one answer.)
    std::vector<std::shared_ptr<Connection>> alive;
    for (const auto& conn : impl->connections) {
      if (conn->finished()) {
        conn->close();
      } else {
        alive.push_back(conn);
      }
    }
    impl->connections.swap(alive);
  }

  for (const auto& conn : impl->connections) {
    conn->close();
  }
  impl->connections.clear();
  return !impl->loop_failed;
}

}  // namespace symphase
