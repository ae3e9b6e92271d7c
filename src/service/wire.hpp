#pragma once

/// \file wire.hpp
/// Chunked, length-prefixed frame protocol of the sampling service.
///
/// Every message on the wire — a request going in, a streamed result
/// coming back — is a sequence of frames sharing one request_id:
///
///   frame := FrameHeader (17 bytes, little-endian) + payload
///
///   offset  size  field
///        0     8  request_id     caller-chosen (nonzero; 0 is reserved
///                                for session-level error frames)
///        8     4  chunk_index    0,1,2,... contiguous per request
///       12     4  payload_bytes  length of the payload that follows
///       16     1  flags          bit 0 kFrameLast, bit 1 kFrameError,
///                                bit 2 kFrameTiming
///
/// A message is the concatenation of its frames' payloads up to and
/// including the frame carrying kFrameLast. kFrameError (only valid
/// together with kFrameLast) marks a failed message: the final payload
/// is human-readable error text instead of data, and any data payloads
/// that preceded it must be discarded. kFrameTiming (only valid with
/// kFrameLast, never with kFrameError) marks the final payload as a
/// stage-timing summary in Server-Timing syntax rather than data; the
/// service attaches it only when the request opted in with `timing=1`,
/// so pre-timing peers never see the bit.
///
/// Decoding is split into two layers so each can be hardened and fuzzed
/// on its own:
///  - FrameDecoder: bytes -> frames. Incremental (feed arbitrary byte
///    slices), rejects oversized payload_bytes, unknown flag bits, and
///    error-without-last before buffering a payload; finish() turns a
///    trailing partial frame into a truncation error. A malformed stream
///    poisons the decoder (failed()/error()) — it never throws, crashes,
///    or reads past its buffer, which the fuzz tests run under
///    ASan/UBSan to enforce.
///  - MessageAssembler: frames -> messages. Enforces per-request
///    contiguous chunk_index from 0 and bounded total message size.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>

namespace symphase {

inline constexpr std::size_t kFrameHeaderBytes = 17;

/// Frame flag bits. Any other bit set is a protocol violation.
enum FrameFlags : std::uint8_t {
  kFrameLast = 1u << 0,
  kFrameError = 1u << 1,
  kFrameTiming = 1u << 2,
};

/// Per-frame cap enforced by FrameDecoder (and respected by every
/// encoder in this repo): large results are split across frames instead.
inline constexpr std::size_t kDefaultMaxFramePayload = 16u << 20;  // 16 MiB

/// Per-message cap enforced by MessageAssembler.
inline constexpr std::size_t kDefaultMaxMessageBytes = 256u << 20;  // 256 MiB

/// Cap on concurrently open (partially assembled) messages — bounds the
/// assembler's per-request state against request_id spray.
inline constexpr std::size_t kDefaultMaxOpenMessages = 1024;

struct FrameHeader {
  std::uint64_t request_id = 0;
  std::uint32_t chunk_index = 0;
  std::uint32_t payload_bytes = 0;
  std::uint8_t flags = 0;
};

struct Frame {
  FrameHeader header;
  std::string payload;
};

/// Serializes the header little-endian into exactly kFrameHeaderBytes.
void encode_frame_header(const FrameHeader& header,
                         char out[kFrameHeaderBytes]);

/// header + payload as one byte string; header.payload_bytes is taken
/// from payload.size() (the field in `header` is ignored).
std::string encode_frame(FrameHeader header, std::string_view payload);

/// Writes encode_frame() straight to a stream (binary).
void write_frame(std::ostream& out, FrameHeader header,
                 std::string_view payload);

/// Incremental bytes->frames decoder. See file comment for the
/// rejection rules. Usage:
///
///   FrameDecoder decoder;
///   decoder.feed(bytes);
///   Frame frame;
///   while (decoder.next(frame)) { ... }
///   if (decoder.failed()) { ... }          // poisoned, stop reading
///   ... at EOF: if (!decoder.finish()) ... // trailing partial frame
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kDefaultMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Appends raw stream bytes. No-op once failed().
  void feed(std::string_view bytes);

  /// Pops the next complete frame into `out`. Returns false when no
  /// complete frame is buffered (or the decoder is poisoned).
  bool next(Frame& out);

  /// Declares end-of-stream: any buffered partial frame becomes a
  /// truncation error. Returns true iff the stream ended cleanly.
  bool finish();

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }

  /// Bytes currently buffered (undecoded). Bounded by
  /// kFrameHeaderBytes + max_payload + the largest single feed() slice.
  std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  void fail(std::string message);

  std::size_t max_payload_;
  std::string buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ already decoded
  bool failed_ = false;
  std::string error_;
};

/// Reassembles frames into per-request messages, enforcing contiguous
/// chunk_index (starting at 0), the per-message size cap, and the
/// open-message cap. Requests may interleave arbitrarily; a request_id
/// can be reused once its previous message completed — but never while
/// it is still in flight (FrameSession enforces that side).
class MessageAssembler {
 public:
  struct Message {
    std::uint64_t request_id = 0;
    /// Concatenated data payloads (empty for failed messages).
    std::string payload{};
    /// True when the final frame carried kFrameError.
    bool error = false;
    /// Error text from the final frame (failed messages only).
    std::string error_text{};
    /// Stage-timing summary from a kFrameTiming final frame (empty
    /// unless the request opted in with `timing=1`).
    std::string timing{};
  };

  explicit MessageAssembler(
      std::size_t max_message_bytes = kDefaultMaxMessageBytes,
      std::size_t max_open_messages = kDefaultMaxOpenMessages)
      : max_message_bytes_(max_message_bytes),
        max_open_messages_(max_open_messages) {}

  /// Folds one frame in; returns the completed message when `frame` is
  /// its last. A chunk_index gap/repeat or an oversized message poisons
  /// the assembler instead (failed()/error()).
  std::optional<Message> accept(const Frame& frame);

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }

  /// Requests with buffered partial messages (for EOF diagnostics).
  std::size_t open_messages() const { return partial_.size(); }

 private:
  struct Partial {
    std::uint32_t next_chunk = 0;
    std::string payload;
  };

  void fail(std::string message);

  std::size_t max_message_bytes_;
  std::size_t max_open_messages_;
  std::unordered_map<std::uint64_t, Partial> partial_;
  bool failed_ = false;
  std::string error_;
};

}  // namespace symphase
