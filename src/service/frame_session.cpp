#include "service/frame_session.hpp"

#include <algorithm>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "service/request.hpp"

namespace symphase {

namespace {

/// Emits `reply` as the one, final frame of `request_id`.
void emit_reply(const FrameFn& emit, std::uint64_t request_id,
                std::string_view reply) {
  FrameHeader header;
  header.request_id = request_id;
  header.flags = kFrameLast;
  header.payload_bytes = static_cast<std::uint32_t>(reply.size());
  emit(header, reply);
}

}  // namespace

FrameSession::FrameSession(SamplingService& service, std::mutex& mutex,
                           std::map<std::uint64_t, std::uint64_t>& inflight,
                           bool may_block, std::uint64_t client_id)
    : service_(service),
      mutex_(mutex),
      inflight_(inflight),
      may_block_(may_block),
      client_id_(client_id),
      // Raising --max-frame also raises the inbound allowance; it never
      // shrinks below the decoder default, so big inline circuits keep
      // working with a small response-chunk cap.
      decoder_(std::max(service.options().max_frame_payload,
                        kDefaultMaxFramePayload)) {}

bool FrameSession::feed(std::string_view bytes, const FrameFn& emit) {
  decoder_.feed(bytes);
  Frame frame;
  while (error_.empty() && decoder_.next(frame)) {
    if (auto message = assembler_.accept(frame)) {
      serve(std::move(*message), emit);
    }
  }
  if (error_.empty() && (decoder_.failed() || assembler_.failed())) {
    fail(decoder_.failed() ? decoder_.error() : assembler_.error(), emit);
  }
  return error_.empty();
}

std::string FrameSession::finish(const FrameFn& emit) {
  if (error_.empty()) {
    if (!decoder_.finish()) {
      fail(decoder_.error(), emit);
    } else if (assembler_.open_messages() > 0) {
      std::ostringstream oss;
      oss << "stream ended with " << assembler_.open_messages()
          << " incomplete request(s)";
      fail(oss.str(), emit);
    }
  }
  return error_;
}

void FrameSession::fail(const std::string& reason, const FrameFn& emit) {
  error_ = "protocol error: " + reason;
  emit_error_reply(emit, 0, make_error(ErrorCode::kBadCircuit, error_));
}

void FrameSession::serve(MessageAssembler::Message message,
                         const FrameFn& emit) {
  const std::uint64_t id = message.request_id;
  if (id == 0) {
    // A response under 0 could collide with a session-level error.
    emit_error_reply(emit, 0,
                     make_error(ErrorCode::kBadCircuit,
                                "request_id 0 is reserved for "
                                "session-level errors"));
    return;
  }
  bool claimed = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    claimed = inflight_.emplace(id, 0).second;
  }
  if (!claimed) {
    std::ostringstream oss;
    oss << "request id " << id << " reused while still in flight";
    fail(oss.str(), emit);
    return;
  }
  if (message.error) {
    emit_error_reply(emit, id,
                     make_error(ErrorCode::kBadCircuit,
                                "client sent an error frame"));
    return;
  }
  try {
    SampleRequest request = parse_request_payload(message.payload);
    switch (request.verb) {
      case RequestVerb::kRegister:
        // Parses on the transport's thread: register is a rare control
        // verb whose reply must come from the registration, while
        // inline sample/detect circuits parse on worker threads. On TCP
        // a multi-MB register stalls other clients for the parse.
        emit_reply(emit, id,
                   "digest=" + service_.register_circuit(request.circuit_text) +
                       "\n");
        break;
      case RequestVerb::kStats: {
        if (may_block_) {
          // The counters then count every request submitted before
          // this one.
          service_.drain();
        }
        const ServiceStats stats = service_.stats();
        emit_reply(emit, id,
                   request.stats_json ? stats.to_json() : stats.to_line());
        break;
      }
      case RequestVerb::kHealth: {
        // A snapshot whatever may_block says: health must answer while
        // the queue is busy.
        const ServiceHealth health = service_.health();
        emit_reply(emit, id,
                   request.stats_json ? health.to_json() : health.to_line());
        break;
      }
      case RequestVerb::kCancel: {
        // The target is request.cancel_id within this session.
        std::uint64_t ticket = 0;
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          const auto it = inflight_.find(request.cancel_id);
          ticket = it == inflight_.end() ? 0 : it->second;
        }
        if (ticket != 0 && service_.cancel(ticket)) {
          emit_reply(emit, id, "cancelled\n");
        } else {
          std::ostringstream oss;
          oss << "request " << request.cancel_id
              << " is not in flight on this session";
          emit_error_reply(emit, id,
                           make_error(ErrorCode::kBadCircuit, oss.str()));
        }
        break;
      }
      case RequestVerb::kSample:
      case RequestVerb::kDetect:
        submit(id, std::move(request), emit);
        break;
    }
  } catch (const std::invalid_argument& e) {
    // Parse/validation failures of the client's own payload.
    emit_error_reply(emit, id, make_error(ErrorCode::kBadCircuit, e.what()));
  } catch (const std::exception& e) {
    emit_error_reply(emit, id, make_error(ErrorCode::kInternal, e.what()));
  }
}

void FrameSession::submit(std::uint64_t id, SampleRequest request,
                          const FrameFn& emit) {
  // An admission rejection returns ticket 0 and emits no frames, so the
  // structured error ships from here.
  ServiceError rejection;
  const std::uint64_t ticket =
      may_block_ ? service_.submit(id, std::move(request), emit, client_id_,
                                   &rejection, RequestTransport::kFrame)
                 : service_.try_submit(id, std::move(request), emit,
                                       client_id_, &rejection,
                                       RequestTransport::kFrame);
  if (ticket == 0) {
    emit_error_reply(emit, id, rejection);
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = inflight_.find(id);
  if (it != inflight_.end()) {
    // Still streaming: the final frame can race submit's return, and
    // when it won the entry is already gone.
    it->second = ticket;
  }
}

}  // namespace symphase
