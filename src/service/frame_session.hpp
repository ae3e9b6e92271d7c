#pragma once

/// \file frame_session.hpp
/// One client's session on the frame protocol (wire.hpp).
///
/// Both frame transports run one: `symphase serve --stdio` for its one
/// client on stdin/stdout, and `symphase serve --listen` for each frame
/// connection (net/server.cpp). The transport feeds the session its
/// inbound bytes and ships the frames the session emits; the session
/// decodes frames, reassembles request messages and applies the rules
/// of a session:
///  - request ids are scoped to the session (the service demultiplexes
///    by ticket), and id 0 is reserved for session-level error frames:
///    a request under it gets an error frame on id 0 and the session
///    goes on;
///  - reusing an id whose response is still streaming would interleave
///    two chunk sequences under one id, so it is a protocol error;
///  - a protocol error (that reuse, bad framing, a chunk gap, an
///    oversized message, or a stream that ends mid-frame or
///    mid-message) is answered with an error frame on id 0 and ends
///    the session;
///  - every verb goes to the SamplingService, and a request that fails
///    (malformed directive, circuit parse error, admission rejection)
///    gets an error frame on its own id while the session goes on.
///
/// The session's error frames are written by emit_error_reply
/// (service.hpp), the same encoder as the service's own error final
/// frames.
///
/// The transports differ in one property, `may_block`. The stdio
/// reader may wait (true): sample/detect use the blocking submit(), and
/// `stats` drains first so its counters reflect every request submitted
/// before it. The socket server's poll thread may not (false): it is
/// the only thread that flushes client sockets, and workers free queue
/// space only by emitting through them, so parking it on queue space
/// could deadlock the transport. It uses try_submit(), which answers a
/// full queue with a retryable `queue_full` error frame, and `stats`
/// replies with a live snapshot.
///
/// The map of ids whose response is still streaming (id -> scheduler
/// ticket, 0 until submit returns) belongs to the transport, guarded by
/// the transport's mutex: a TCP connection's map is what disconnect
/// cancellation walks. The session claims an id in it when a message
/// arrives and never holds the mutex while it emits. The transport's
/// emitter erases the id under that mutex in the same step that ships
/// the id's final (kFrameLast) frame, so a client that has read the
/// final frame may reuse the id at once.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "service/errors.hpp"
#include "service/service.hpp"
#include "service/wire.hpp"

namespace symphase {

class FrameSession {
 public:
  /// `mutex` guards `inflight`; both, and `service`, outlive the
  /// session. `client_id` scopes the request's admission rate bucket
  /// (0 = the shared bucket).
  FrameSession(SamplingService& service, std::mutex& mutex,
               std::map<std::uint64_t, std::uint64_t>& inflight,
               bool may_block, std::uint64_t client_id = 0);

  FrameSession(const FrameSession&) = delete;
  FrameSession& operator=(const FrameSession&) = delete;

  /// Consumes inbound bytes and serves every request message they
  /// complete. Replies and errors go out through `emit`; a submitted
  /// sample/detect request keeps a copy of it until its final frame.
  /// Returns false once a protocol error ended the session (its error
  /// frame is emitted); feed nothing more then.
  bool feed(std::string_view bytes, const FrameFn& emit);

  /// The end of the inbound stream: a stream cut mid-frame or
  /// mid-message is a protocol error, emitted on id 0. Returns the
  /// protocol error that ended the session, or "" for a clean end.
  std::string finish(const FrameFn& emit);

 private:
  /// Serves one complete request message.
  void serve(MessageAssembler::Message message, const FrameFn& emit);
  /// Enqueues sample/detect request `id` and records its ticket.
  void submit(std::uint64_t id, SampleRequest request, const FrameFn& emit);
  /// Ends the session on a protocol error described by `reason`.
  void fail(const std::string& reason, const FrameFn& emit);

  SamplingService& service_;
  std::mutex& mutex_;
  std::map<std::uint64_t, std::uint64_t>& inflight_;
  const bool may_block_;
  const std::uint64_t client_id_;
  FrameDecoder decoder_;
  MessageAssembler assembler_;
  /// The protocol error that ended the session; empty while it runs.
  std::string error_;
};

}  // namespace symphase
