#pragma once

/// \file wire.hpp
/// The load generator's own client side of `symphase serve`: the
/// 17-byte frame header, the Server-Timing stage line (timing frames and
/// the HTTP trailer), an incremental HTTP/1.1 response parser for
/// chunked bodies with trailers, and a blocking loopback connection.
/// Written from the documented wire format rather than the library's
/// client, so the load generator is not part of the code it measures.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

inline constexpr std::size_t kHeaderBytes = 17;
inline constexpr std::uint8_t kFlagLast = 1;
inline constexpr std::uint8_t kFlagError = 2;
inline constexpr std::uint8_t kFlagTiming = 4;

struct FrameHead {
  std::uint64_t request_id = 0;
  std::uint32_t chunk_index = 0;
  std::uint32_t payload_bytes = 0;
  std::uint8_t flags = 0;
};

std::string encode_frame(const FrameHead& head, std::string_view payload);
FrameHead decode_head(const char* bytes);

/// Per-request stage summary, milliseconds, from a Server-Timing line
/// such as "queue;dur=0.012, compile;dur=0.000, execute;dur=3.612,
/// emit;dur=0.274, total;dur=3.899". `ok` is false when any of the five
/// stages is missing or unparsable.
struct StageTimes {
  double queue = 0, compile = 0, execute = 0, emit = 0, total = 0;
  bool ok = false;
};
StageTimes parse_server_timing(std::string_view line);

/// Incremental HTTP/1.1 response parser for one response: status line,
/// headers, then a chunked body (or Content-Length) and trailers.
class HttpResponse {
 public:
  /// Consumes bytes from `data`; returns how many were used (the rest
  /// belong to the next response on the connection).
  std::size_t feed(std::string_view data);

  bool done() const { return state_ == State::kDone; }
  bool failed() const { return state_ == State::kFailed; }
  int status() const { return status_; }
  bool chunked() const { return chunked_; }
  const std::string& body() const { return body_; }
  /// Value of the Server-Timing trailer (or header), empty if absent.
  const std::string& server_timing() const { return server_timing_; }

 private:
  enum class State {
    kStatus, kHeaders, kChunkSize, kChunkData, kChunkEnd, kLengthBody,
    kTrailers, kDone, kFailed
  };
  bool take_line(std::string_view data, std::size_t& used, std::string& out);
  void header_line(const std::string& line, bool trailer);

  State state_ = State::kStatus;
  std::string line_;
  int status_ = 0;
  bool chunked_ = false;
  std::uint64_t remaining_ = 0;
  std::string body_;
  std::string server_timing_;
};

/// Blocking TCP connection to 127.0.0.1 with a receive buffer.
class Connection {
 public:
  explicit Connection(std::uint16_t port);
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection();

  void send_all(std::string_view bytes);
  /// Reads one frame; the payload is appended to `payload` when
  /// `append` (else replaced). Returns false on EOF or error.
  bool read_frame(FrameHead& head, std::string& payload, bool append);
  /// Feeds received bytes into `response` until it completes. Returns
  /// false if the connection ends (or errs) first.
  bool read_http(HttpResponse& response);

 private:
  /// Receives more bytes into buf_; false on EOF or error.
  bool fill();

  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

}  // namespace perfbench
