#pragma once

/// \file server.hpp
/// The TCP transport of the sampling service: `symphase serve --listen`.
///
/// One poll(2)-driven event-loop thread owns every socket; the
/// SamplingService's worker pool does all compilation and sampling.
/// The same loop optionally serves the HTTP/JSON gateway on a second
/// listener (SocketServerOptions::http_listen): both protocols are
/// net/connection.hpp connections, sharing outbound buffering, worker
/// backpressure, disconnect cancellation, and drain.
/// Frames a worker emits are appended to the owning connection's
/// outbound buffer (bounded — a slow reader backpressures its own
/// requests, never the loop or other clients) and flushed by the loop
/// when the socket is writable; a self-pipe wakes poll() when a worker
/// enqueues. The wire protocol is service/wire.hpp *verbatim* — a
/// socket client and a `--stdio` client exchange byte-identical frame
/// streams (pinned by tests/socket_test.cpp over the corpus), so the
/// DAC-style chunked codeword framing stays the single contract across
/// transports.
///
/// Each frame connection runs one FrameSession
/// (service/frame_session.hpp), the session `serve --stdio` runs for
/// its one client: request ids are scoped to the connection, id 0 is
/// reserved, and reusing an id whose response is still streaming is a
/// protocol error that ends that connection only. The sessions here
/// run with may_block = false, since the loop thread must never park:
/// a full queue sheds the request with a `queue_full` error frame, and
/// `stats` replies with a live snapshot instead of draining (see
/// docs/service.md). Disconnects cancel the connection's queued and
/// in-flight requests — abandoned work stops at the next shard-chunk
/// boundary instead of sampling into a void.
///
/// Shutdown comes in two shapes. shutdown() is immediate: every
/// connection closes, outstanding requests are cancelled. drain() is
/// graceful (the CLI maps SIGTERM to it): the listener closes, new
/// submissions are rejected with a structured `draining` error frame,
/// in-flight responses finish and flush, idle connections retire, and
/// run() returns true once the last connection is gone — the clean
/// exit-0 path under orchestrators.
///
///   SocketServer server({.listen = "127.0.0.1:0"});
///   std::thread loop([&] { server.run(); });
///   ServiceClient client("127.0.0.1:" + std::to_string(server.port()));
///   ...
///   server.shutdown();
///   loop.join();

#include <cstdint>
#include <memory>
#include <string>

#include "http/gateway.hpp"
#include "service/service.hpp"

namespace symphase {

struct SocketServerOptions {
  /// host:port to bind; port 0 picks an ephemeral port (see port()).
  std::string listen = "127.0.0.1:0";
  ServiceOptions service;
  /// Connections beyond this are accepted and immediately closed.
  /// Shared across the frame and HTTP listeners.
  std::size_t max_connections = 64;
  /// Per-connection cap on buffered unsent response bytes; a worker
  /// emitting past it blocks until the client drains (per-request
  /// backpressure against slow readers).
  std::size_t max_outbound_buffer = 64u << 20;
  /// Idle-read timeout for frame connections in milliseconds (0 = off):
  /// a connection with no request in flight and no inbound bytes for
  /// this long is answered with a `timeout` error frame (request id 0)
  /// and closed — the frame-protocol counterpart of the HTTP gateway's
  /// slow-loris 408. A client mid-request never idles out: in-flight
  /// responses reset the clock when they finish.
  std::uint64_t idle_timeout_ms = 0;
  /// host:port for the HTTP/JSON gateway (http/gateway.hpp), served
  /// from the same event loop; empty disables HTTP. Port 0 picks an
  /// ephemeral port (see http_port()).
  std::string http_listen;
  HttpGatewayOptions http;
};

class SocketServer {
 public:
  /// Binds the listen socket (throws on failure); the loop starts with
  /// run().
  explicit SocketServer(SocketServerOptions options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// The bound port — the ephemeral one when the spec said port 0.
  std::uint16_t port() const;

  /// The bound HTTP gateway port; 0 when HTTP is disabled.
  std::uint16_t http_port() const;

  /// The gateway behind the HTTP listener (metrics registry access);
  /// nullptr when HTTP is disabled.
  HttpGateway* gateway();

  /// The event loop. Blocks the calling thread until shutdown();
  /// close/error on individual connections never ends it. Returns
  /// false when the loop died on an internal error (poll failure)
  /// instead of a requested shutdown.
  bool run();

  /// Thread-safe: wakes the loop, closes every connection (cancelling
  /// their outstanding requests), and makes run() return. Idempotent.
  void shutdown();

  /// Thread-safe and async-signal-safe (an atomic store plus a
  /// self-pipe write): starts a graceful drain. The loop stops
  /// accepting connections, the service rejects new requests with
  /// `draining`, in-flight work finishes and flushes, and run()
  /// returns once every connection retired. Idempotent; a subsequent
  /// shutdown() escalates to an immediate stop.
  void drain();

  /// The underlying service (stats, in-process submissions in tests).
  SamplingService& service();

  // Implementation detail, defined in server.cpp. (The per-connection
  // state that used to live here is now the transport-agnostic
  // net/connection.hpp, shared with the HTTP gateway.)
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace symphase
