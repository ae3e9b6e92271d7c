// Property/fuzz tests for the wire protocol (src/service/wire.hpp).
//
// Every random sequence below is driven by a fixed-seed std::mt19937_64,
// so a failure reproduces exactly. The hostile-input tests (truncation,
// oversized lengths, garbage bytes) assert the decoder degrades to a
// clean error state — no crash, no unbounded buffering — and CI runs
// this binary under ASan+UBSan so "no UB" is enforced, not assumed.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/errors.hpp"
#include "service/wire.hpp"

namespace symphase {
namespace {

std::string random_bytes(std::mt19937_64& rng, std::size_t size) {
  std::string bytes(size, '\0');
  std::uniform_int_distribution<int> byte(0, 255);
  for (char& c : bytes) {
    c = static_cast<char>(byte(rng));
  }
  return bytes;
}

/// Feeds `stream` to `decoder` in random-size slices and drains frames
/// after every slice (the way a socket/pipe reader would).
std::vector<Frame> decode_in_slices(std::mt19937_64& rng, FrameDecoder& decoder,
                                    const std::string& stream) {
  std::vector<Frame> frames;
  std::size_t offset = 0;
  std::uniform_int_distribution<std::size_t> slice_size(1, 97);
  while (offset < stream.size()) {
    const std::size_t n = std::min(slice_size(rng), stream.size() - offset);
    decoder.feed(std::string_view(stream).substr(offset, n));
    offset += n;
    Frame frame;
    while (decoder.next(frame)) {
      frames.push_back(frame);
    }
  }
  return frames;
}

TEST(WireFrame, HeaderLayoutIsLittleEndianAndSized) {
  FrameHeader header;
  header.request_id = 0x1122334455667788ULL;
  header.chunk_index = 0xa1b2c3d4;
  header.flags = kFrameLast;
  const std::string frame = encode_frame(header, "ab");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 2);
  const auto byte = [&](std::size_t i) {
    return static_cast<unsigned char>(frame[i]);
  };
  EXPECT_EQ(byte(0), 0x88);  // request_id LSB first
  EXPECT_EQ(byte(7), 0x11);
  EXPECT_EQ(byte(8), 0xd4);  // chunk_index
  EXPECT_EQ(byte(11), 0xa1);
  EXPECT_EQ(byte(12), 2);  // payload_bytes
  EXPECT_EQ(byte(15), 0);
  EXPECT_EQ(byte(16), kFrameLast);
  EXPECT_EQ(frame.substr(kFrameHeaderBytes), "ab");
}

TEST(WireFuzz, RandomFrameSequencesRoundTrip) {
  std::mt19937_64 rng(20240601);
  for (int round = 0; round < 50; ++round) {
    // A random interleaving of messages for a small id pool, each a
    // contiguous chunk run ending in a last (sometimes error) frame.
    std::uniform_int_distribution<int> count(1, 30);
    std::uniform_int_distribution<std::uint64_t> id(0, 4);
    std::uniform_int_distribution<std::size_t> payload_size(0, 512);
    std::uniform_int_distribution<int> coin(0, 9);

    std::vector<Frame> sent;
    std::unordered_map<std::uint64_t, std::uint32_t> next_chunk;
    std::unordered_map<std::uint64_t, std::string> expected_payload;
    std::vector<MessageAssembler::Message> expected_messages;
    const int frames = count(rng);
    for (int i = 0; i < frames; ++i) {
      Frame frame;
      frame.header.request_id = id(rng);
      frame.header.chunk_index = next_chunk[frame.header.request_id];
      frame.payload = random_bytes(rng, payload_size(rng));
      const bool last = coin(rng) < 3;
      const bool error = last && coin(rng) < 2;
      frame.header.flags = static_cast<std::uint8_t>(
          (last ? kFrameLast : 0) | (error ? kFrameError : 0));
      frame.header.payload_bytes =
          static_cast<std::uint32_t>(frame.payload.size());
      sent.push_back(frame);
      if (error) {
        expected_messages.push_back(
            {frame.header.request_id, "", true, frame.payload});
        next_chunk.erase(frame.header.request_id);
        expected_payload.erase(frame.header.request_id);
      } else {
        expected_payload[frame.header.request_id] += frame.payload;
        if (last) {
          expected_messages.push_back(
              {frame.header.request_id,
               expected_payload[frame.header.request_id], false, ""});
          next_chunk.erase(frame.header.request_id);
          expected_payload.erase(frame.header.request_id);
        } else {
          next_chunk[frame.header.request_id]++;
        }
      }
    }

    std::string stream;
    for (const Frame& frame : sent) {
      stream += encode_frame(frame.header, frame.payload);
    }

    FrameDecoder decoder;
    const std::vector<Frame> decoded = decode_in_slices(rng, decoder, stream);
    EXPECT_TRUE(decoder.finish()) << decoder.error();
    ASSERT_EQ(decoded.size(), sent.size());
    MessageAssembler assembler;
    std::vector<MessageAssembler::Message> messages;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(decoded[i].header.request_id, sent[i].header.request_id);
      EXPECT_EQ(decoded[i].header.chunk_index, sent[i].header.chunk_index);
      EXPECT_EQ(decoded[i].header.flags, sent[i].header.flags);
      EXPECT_EQ(decoded[i].payload, sent[i].payload);
      if (auto message = assembler.accept(decoded[i])) {
        messages.push_back(std::move(*message));
      }
    }
    ASSERT_FALSE(assembler.failed()) << assembler.error();
    ASSERT_EQ(messages.size(), expected_messages.size());
    for (std::size_t i = 0; i < messages.size(); ++i) {
      EXPECT_EQ(messages[i].request_id, expected_messages[i].request_id);
      EXPECT_EQ(messages[i].payload, expected_messages[i].payload);
      EXPECT_EQ(messages[i].error, expected_messages[i].error);
      EXPECT_EQ(messages[i].error_text, expected_messages[i].error_text);
    }
  }
}

TEST(WireFuzz, TruncatedStreamsErrorCleanly) {
  std::mt19937_64 rng(77);
  FrameHeader header;
  header.request_id = 9;
  std::string stream;
  std::vector<std::size_t> boundaries = {0};
  for (std::uint32_t i = 0; i < 8; ++i) {
    header.chunk_index = i;
    header.flags = i == 7 ? kFrameLast : 0;
    stream += encode_frame(header, random_bytes(rng, 100 + i));
    boundaries.push_back(stream.size());
  }
  // Every strict prefix either ends exactly between frames (clean) or
  // inside one (truncation error) — never crashes, never accepts a
  // partial frame as data.
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(std::string_view(stream).substr(0, cut));
    Frame frame;
    std::size_t whole = 0;
    while (decoder.next(frame)) {
      EXPECT_EQ(frame.payload.size(), 100 + frame.header.chunk_index);
      ++whole;
    }
    const bool at_boundary =
        std::find(boundaries.begin(), boundaries.end(), cut) !=
        boundaries.end();
    EXPECT_EQ(decoder.finish(), at_boundary) << "cut " << cut;
    EXPECT_EQ(decoder.failed(), !at_boundary) << "cut " << cut;
    if (!at_boundary) {
      EXPECT_NE(decoder.error().find("truncated"), std::string::npos);
    }
    // Whole frames before the cut decoded fine either way.
    std::size_t complete = 0;
    while (complete < 8 && boundaries[complete + 1] <= cut) {
      ++complete;
    }
    EXPECT_EQ(whole, complete) << "cut " << cut;
  }
}

TEST(WireFuzz, OversizedPayloadLengthRejectedBeforeBuffering) {
  FrameDecoder decoder(1024);
  FrameHeader header;
  header.request_id = 1;
  header.payload_bytes = 0xffffffff;  // ~4 GiB claim
  char head[kFrameHeaderBytes];
  encode_frame_header(header, head);
  decoder.feed(std::string_view(head, kFrameHeaderBytes));
  Frame frame;
  EXPECT_FALSE(decoder.next(frame));
  EXPECT_TRUE(decoder.failed());
  EXPECT_NE(decoder.error().find("payload_bytes"), std::string::npos);
  // Poisoned: further input is ignored, no buffering growth.
  decoder.feed(std::string(1 << 16, 'x'));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  EXPECT_FALSE(decoder.next(frame));
}

TEST(WireFuzz, UnknownFlagBitsRejected) {
  for (int flags = 8; flags < 256; flags <<= 1) {
    FrameDecoder decoder;
    FrameHeader header;
    header.flags = static_cast<std::uint8_t>(flags);
    decoder.feed(encode_frame(header, ""));
    Frame frame;
    EXPECT_FALSE(decoder.next(frame)) << flags;
    EXPECT_TRUE(decoder.failed()) << flags;
  }
}

TEST(WireFuzz, TimingFinalFrameCarriesSummaryNotData) {
  FrameDecoder decoder;
  FrameHeader header;
  header.request_id = 3;
  header.payload_bytes = 4;
  decoder.feed(encode_frame(header, "data"));
  header.chunk_index = 1;
  header.flags = kFrameLast | kFrameTiming;
  const std::string timing = "queue;dur=0.120, total;dur=4.500";
  header.payload_bytes = static_cast<std::uint32_t>(timing.size());
  decoder.feed(encode_frame(header, timing));
  MessageAssembler assembler;
  Frame frame;
  std::optional<MessageAssembler::Message> message;
  while (decoder.next(frame)) {
    if (auto done = assembler.accept(frame)) {
      message = std::move(done);
    }
  }
  EXPECT_TRUE(decoder.finish()) << decoder.error();
  ASSERT_TRUE(message.has_value());
  // The timing payload annotates the message; it is not data bytes.
  EXPECT_EQ(message->payload, "data");
  EXPECT_EQ(message->timing, timing);
  EXPECT_FALSE(message->error);
}

TEST(WireFuzz, TimingWithoutLastRejected) {
  FrameDecoder decoder;
  FrameHeader header;
  header.flags = kFrameTiming;
  decoder.feed(encode_frame(header, ""));
  Frame frame;
  EXPECT_FALSE(decoder.next(frame));
  EXPECT_TRUE(decoder.failed());
  EXPECT_NE(decoder.error().find("timing frame"), std::string::npos);
}

TEST(WireFuzz, TimingOnErrorFrameRejected) {
  FrameDecoder decoder;
  FrameHeader header;
  header.flags = kFrameLast | kFrameError | kFrameTiming;
  header.payload_bytes = 4;
  decoder.feed(encode_frame(header, "boom"));
  Frame frame;
  EXPECT_FALSE(decoder.next(frame));
  EXPECT_TRUE(decoder.failed());
  EXPECT_NE(decoder.error().find("timing frame"), std::string::npos);
}

TEST(WireFuzz, ErrorWithoutLastRejected) {
  FrameDecoder decoder;
  FrameHeader header;
  header.flags = kFrameError;
  decoder.feed(encode_frame(header, "boom"));
  Frame frame;
  EXPECT_FALSE(decoder.next(frame));
  EXPECT_TRUE(decoder.failed());
  EXPECT_NE(decoder.error().find("error frame without last"),
            std::string::npos);
}

TEST(WireFuzz, OutOfOrderChunkIndexRejected) {
  std::mt19937_64 rng(4242);
  for (int round = 0; round < 200; ++round) {
    MessageAssembler assembler;
    FrameHeader header;
    header.request_id = 5;
    Frame frame;
    frame.header = header;
    // Valid prefix of k in-order chunks...
    std::uniform_int_distribution<std::uint32_t> prefix(0, 5);
    const std::uint32_t k = prefix(rng);
    for (std::uint32_t i = 0; i < k; ++i) {
      frame.header.chunk_index = i;
      frame.payload.assign(1, 'd');
      EXPECT_FALSE(assembler.accept(frame).has_value());
      EXPECT_FALSE(assembler.failed());
    }
    // ...then a gap, repeat, or backwards jump.
    std::uniform_int_distribution<std::uint32_t> wrong(0, 1000);
    std::uint32_t bad = wrong(rng);
    if (bad == k) {
      bad = k + 1 + wrong(rng);
    }
    frame.header.chunk_index = bad;
    EXPECT_FALSE(assembler.accept(frame).has_value());
    EXPECT_TRUE(assembler.failed());
    EXPECT_NE(assembler.error().find("out-of-order"), std::string::npos);
    // Poisoned assembler rejects everything afterwards.
    frame.header.chunk_index = k;
    EXPECT_FALSE(assembler.accept(frame).has_value());
  }
}

TEST(WireFuzz, MessageSizeCapEnforced) {
  MessageAssembler assembler(/*max_message_bytes=*/100);
  Frame frame;
  frame.header.request_id = 3;
  frame.payload = std::string(60, 'x');
  frame.header.chunk_index = 0;
  EXPECT_FALSE(assembler.accept(frame).has_value());
  EXPECT_FALSE(assembler.failed());
  frame.header.chunk_index = 1;
  EXPECT_FALSE(assembler.accept(frame).has_value());
  EXPECT_TRUE(assembler.failed());
  EXPECT_NE(assembler.error().find("exceeds"), std::string::npos);
}

TEST(WireFuzz, RequestIdSprayHitsOpenMessageCap) {
  // Millions of distinct request_ids with flags=0 frames must not grow
  // per-request state without bound: the assembler fails cleanly at the
  // cap instead.
  MessageAssembler assembler(kDefaultMaxMessageBytes,
                             /*max_open_messages=*/64);
  Frame frame;
  frame.header.chunk_index = 0;
  for (std::uint64_t id = 0; id < 64; ++id) {
    frame.header.request_id = id;
    EXPECT_FALSE(assembler.accept(frame).has_value());
    EXPECT_FALSE(assembler.failed()) << id;
  }
  frame.header.request_id = 64;
  EXPECT_FALSE(assembler.accept(frame).has_value());
  EXPECT_TRUE(assembler.failed());
  EXPECT_NE(assembler.error().find("interleaved messages"),
            std::string::npos);

  // Completing messages frees their slots: at the cap, finish one and a
  // fresh id fits again.
  MessageAssembler recycler(kDefaultMaxMessageBytes, 2);
  frame.header.request_id = 1;
  EXPECT_FALSE(recycler.accept(frame).has_value());
  frame.header.request_id = 2;
  EXPECT_FALSE(recycler.accept(frame).has_value());
  frame.header.request_id = 1;
  frame.header.chunk_index = 1;
  frame.header.flags = kFrameLast;
  EXPECT_TRUE(recycler.accept(frame).has_value());
  frame.header.request_id = 3;
  frame.header.chunk_index = 0;
  frame.header.flags = 0;
  EXPECT_FALSE(recycler.accept(frame).has_value());
  EXPECT_FALSE(recycler.failed()) << recycler.error();
}

TEST(WireFuzz, GarbageBytesNeverCrash) {
  std::mt19937_64 rng(999);
  for (int round = 0; round < 100; ++round) {
    FrameDecoder decoder(4096);
    MessageAssembler assembler;
    std::uniform_int_distribution<std::size_t> size(0, 4096);
    const std::string garbage = random_bytes(rng, size(rng));
    const std::vector<Frame> frames =
        decode_in_slices(rng, decoder, garbage);
    for (const Frame& frame : frames) {
      (void)assembler.accept(frame);
    }
    decoder.finish();
    // Whatever happened, the decoder is in a defined state with bounded
    // buffering; that it didn't crash or trip ASan is the real assert.
    EXPECT_LE(decoder.buffered_bytes(), 4096u + kFrameHeaderBytes + 4096u);
  }
}

TEST(WireFuzz, DecoderBufferStaysBoundedOnLargeStreams) {
  // 10k small frames fed in slices: the already-decoded prefix must be
  // dropped as we go, not accumulated for the stream's lifetime.
  std::mt19937_64 rng(31337);
  std::string stream;
  FrameHeader header;
  for (int i = 0; i < 10000; ++i) {
    header.chunk_index = static_cast<std::uint32_t>(i);
    stream += encode_frame(header, "0123456789");
  }
  FrameDecoder decoder;
  std::size_t offset = 0;
  std::size_t max_buffered = 0;
  Frame frame;
  while (offset < stream.size()) {
    const std::size_t n = std::min<std::size_t>(4096, stream.size() - offset);
    decoder.feed(std::string_view(stream).substr(offset, n));
    offset += n;
    while (decoder.next(frame)) {
    }
    max_buffered = std::max(max_buffered, decoder.buffered_bytes());
  }
  EXPECT_TRUE(decoder.finish());
  EXPECT_LT(max_buffered, 2 * 4096u);
}

TEST(ErrorPayload, RoundTripsEveryCode) {
  for (const ErrorCode code :
       {ErrorCode::kQueueFull, ErrorCode::kRateLimited, ErrorCode::kDraining,
        ErrorCode::kDeadlineExpired, ErrorCode::kCancelled,
        ErrorCode::kBadCircuit, ErrorCode::kInternal}) {
    const ServiceError error =
        make_error(code, "detail: with punctuation, retryable=weird", 1234);
    const std::string payload = encode_error_payload(error);
    const ServiceError parsed = parse_error_payload(payload);
    EXPECT_EQ(parsed.code, error.code) << payload;
    EXPECT_EQ(parsed.retryable, error.retryable) << payload;
    EXPECT_EQ(parsed.retry_after_ms, 1234u) << payload;
    EXPECT_EQ(parsed.message, error.message) << payload;
    // The retryable bit defaults from the taxonomy, not the caller.
    EXPECT_EQ(error.retryable, error_code_retryable(code));
  }
}

TEST(ErrorPayload, EncodedFormMatchesTheDocumentedShape) {
  const std::string payload = encode_error_payload(
      make_error(ErrorCode::kQueueFull, "server request queue is full", 120));
  EXPECT_EQ(payload,
            "E1 queue_full retryable=1 retry_after_ms=120: "
            "server request queue is full");
}

TEST(ErrorPayload, LegacyPlainTextMapsToOpaqueInternal) {
  // Old servers sent free-form text; new clients must still read it.
  const ServiceError legacy =
      parse_error_payload("deadline expired before sampling began");
  EXPECT_EQ(legacy.code, ErrorCode::kInternal);
  EXPECT_FALSE(legacy.retryable);
  EXPECT_EQ(legacy.retry_after_ms, 0u);
  EXPECT_EQ(legacy.message, "deadline expired before sampling began");
}

TEST(ErrorPayload, UnknownCodesParseAndFutureNamesAreTolerated) {
  // A newer server may send codes this client does not know; the
  // structured fields still parse (forward compatibility).
  const ServiceError future = parse_error_payload(
      "E99 solar_flare retryable=1 retry_after_ms=7: too many sunspots");
  EXPECT_EQ(static_cast<std::uint32_t>(future.code), 99u);
  EXPECT_TRUE(future.retryable);
  EXPECT_EQ(future.retry_after_ms, 7u);
  EXPECT_EQ(future.message, "too many sunspots");
}

TEST(ErrorPayload, MalformedPrefixesNeverThrowAndFallBackWhole) {
  std::mt19937_64 rng(0xE77);
  std::vector<std::string> hostile = {
      "",
      "E",
      "E1",
      "E1 ",
      "E1 queue_full",
      "E1 queue_full retryable=",
      "E1 queue_full retryable=2 retry_after_ms=0: nope",
      "E1 queue_full retryable=1 retry_after_ms=: nope",
      "E1 queue_full retryable=1 retry_after_ms=5 no-colon",
      "EX queue_full retryable=1 retry_after_ms=5: x",
      "e1 queue_full retryable=1 retry_after_ms=5: x",
  };
  for (int i = 0; i < 200; ++i) {
    hostile.push_back(random_bytes(rng, static_cast<std::size_t>(i)));
  }
  for (const std::string& payload : hostile) {
    const ServiceError parsed = parse_error_payload(payload);  // must not throw
    if (parsed.code == ErrorCode::kInternal && !parsed.retryable &&
        parsed.retry_after_ms == 0) {
      EXPECT_EQ(parsed.message, payload);
    }
  }
}

}  // namespace
}  // namespace symphase
