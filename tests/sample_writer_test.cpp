#include "sampler/sample_writer.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "api/sample_sink.hpp"
#include "common/rng.hpp"
#include "core/symphase.hpp"

namespace symphase {
namespace {

BitMatrix tiny_samples() {
  // 3 measurements x 2 shots: shot0 = 101, shot1 = 011.
  BitMatrix m(3, 2);
  m.set(0, 0, true);
  m.set(2, 0, true);
  m.set(1, 1, true);
  m.set(2, 1, true);
  return m;
}

TEST(SampleWriter, FormatNames) {
  EXPECT_EQ(sample_format_from_name("01"), SampleFormat::k01);
  EXPECT_EQ(sample_format_from_name("hex"), SampleFormat::kHex);
  EXPECT_EQ(sample_format_from_name("b8"), SampleFormat::kB8);
  EXPECT_EQ(sample_format_from_name("ptb64"), SampleFormat::kPtb64);
  EXPECT_EQ(sample_format_from_name("dets"), SampleFormat::kDets);
  EXPECT_THROW(sample_format_from_name("csv"), std::invalid_argument);
}

TEST(SampleWriter, Format01) {
  EXPECT_EQ(samples_to_string(tiny_samples(), SampleFormat::k01),
            "101\n011\n");
}

TEST(SampleWriter, FormatHex) {
  // shot0 bits 101 -> nibble value 0b101 = 5; shot1 011 -> 0b110 = 6.
  EXPECT_EQ(samples_to_string(tiny_samples(), SampleFormat::kHex),
            "5\n6\n");
}

TEST(SampleWriter, FormatB8) {
  const std::string out =
      samples_to_string(tiny_samples(), SampleFormat::kB8);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(static_cast<unsigned char>(out[0]), 0b101u);
  EXPECT_EQ(static_cast<unsigned char>(out[1]), 0b110u);
}

TEST(SampleWriter, FormatDets) {
  EXPECT_EQ(samples_to_string(tiny_samples(), SampleFormat::kDets),
            "shot D0 D2\nshot D1 D2\n");
  // With 2 detectors, index 2 renders as logical observable 0.
  EXPECT_EQ(samples_to_string(tiny_samples(), SampleFormat::kDets, 2),
            "shot D0 L0\nshot D1 L0\n");
}

TEST(SampleWriter, FormatPtb64Layout) {
  // 2 shots of 3 bits: one 64-shot group of 3 little-endian words,
  // word k bit j = record bit k of shot j; shots beyond 1 zero-padded.
  const std::string out =
      samples_to_string(tiny_samples(), SampleFormat::kPtb64);
  ASSERT_EQ(out.size(), 3u * 8u);
  const auto word = [&](std::size_t k) {
    std::uint64_t w = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      w |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(out[k * 8 + b]))
           << (8 * b);
    }
    return w;
  };
  EXPECT_EQ(word(0), 0b01u);  // bit 0: shot0=1, shot1=0
  EXPECT_EQ(word(1), 0b10u);  // bit 1: shot0=0, shot1=1
  EXPECT_EQ(word(2), 0b11u);  // bit 2: both set
}

TEST(SampleWriter, FormatPtb64RoundTripsModuloGroupPadding) {
  // ptb64 zero-pads the final partial 64-shot group, so the reader
  // returns shots rounded up to a multiple of 64 with zero columns
  // appended; everything else is exact, including shots % 64 != 0 and
  // shots % 8 != 0.
  Rng rng(123);
  for (const std::size_t bits : {1u, 3u, 64u, 65u, 200u}) {
    for (const std::size_t shots : {0u, 1u, 7u, 63u, 64u, 65u, 100u, 128u,
                                    777u}) {
      const BitMatrix original = BitMatrix::random(bits, shots, rng);
      std::stringstream stream;
      write_samples(original, SampleFormat::kPtb64, stream);
      const BitMatrix back = read_samples(stream, SampleFormat::kPtb64, bits);
      const std::size_t padded = ceil_div(shots, 64) * 64;
      ASSERT_EQ(back.rows(), bits);
      ASSERT_EQ(back.cols(), padded) << "bits=" << bits << " shots=" << shots;
      for (std::size_t k = 0; k < bits; ++k) {
        for (std::size_t j = 0; j < padded; ++j) {
          ASSERT_EQ(back.get(k, j), j < shots ? original.get(k, j) : false)
              << "bits=" << bits << " shots=" << shots << " k=" << k
              << " j=" << j;
        }
      }
    }
  }
}

TEST(SampleWriter, Ptb64MasksStaleBitsBeyondShotCap) {
  // The streaming path serializes fixed-width scratch blocks whose
  // columns beyond num_shots may hold stale data; the writer's shot cap
  // must mask them out of the final group.
  BitMatrix block(2, 128);
  for (std::size_t j = 0; j < 128; ++j) {
    block.set(0, j, true);  // stale junk everywhere
  }
  block.set(1, 9, true);
  const std::string out =
      samples_to_string(block, SampleFormat::kPtb64, SIZE_MAX, /*shots=*/10);
  ASSERT_EQ(out.size(), 2u * 8u);  // one group, not two
  std::uint64_t w0 = 0;
  std::uint64_t w1 = 0;
  for (std::size_t b = 0; b < 8; ++b) {
    w0 |= static_cast<std::uint64_t>(static_cast<unsigned char>(out[b]))
          << (8 * b);
    w1 |= static_cast<std::uint64_t>(static_cast<unsigned char>(out[8 + b]))
          << (8 * b);
  }
  EXPECT_EQ(w0, (1ull << 10) - 1);  // only the 10 valid shots survive
  EXPECT_EQ(w1, 1ull << 9);
}

TEST(SampleWriter, Ptb64ReadRejectsPartialGroup) {
  std::stringstream partial(std::string(8 * 2 - 1, '\x00'));
  EXPECT_THROW(read_samples(partial, SampleFormat::kPtb64, 2),
               std::invalid_argument);
}

class WriterRoundTrip : public ::testing::TestWithParam<SampleFormat> {};

TEST_P(WriterRoundTrip, RandomMatricesRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 17);
  for (const std::size_t bits : {0u, 1u, 3u, 8u, 9u, 64u, 65u, 200u, 600u}) {
    for (const std::size_t shots :
         {0u, 1u, 7u, 63u, 64u, 65u, 100u, 8201u}) {
      const BitMatrix original = BitMatrix::random(bits, shots, rng);
      std::stringstream stream;
      write_samples(original, GetParam(), stream);
      if (bits == 0) {
        // Zero-width records cannot be counted back: 01 and hex write an
        // empty line per shot, b8 writes nothing.
        EXPECT_EQ(stream.str(), GetParam() == SampleFormat::kB8
                                    ? std::string()
                                    : std::string(shots, '\n'))
            << "shots=" << shots;
        continue;
      }
      const BitMatrix back = read_samples(stream, GetParam(), bits);
      ASSERT_EQ(back, original) << "bits=" << bits << " shots=" << shots;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, WriterRoundTrip,
                         ::testing::Values(SampleFormat::k01,
                                           SampleFormat::kHex,
                                           SampleFormat::kB8));

/// dets rendered one bit test at a time: the reference the tile
/// renderer must match (dets is write-only, so no round trip covers it).
std::string dets_reference(const BitMatrix& samples,
                           std::size_t num_detectors) {
  std::string out;
  for (std::size_t shot = 0; shot < samples.cols(); ++shot) {
    out += "shot";
    for (std::size_t k = 0; k < samples.rows(); ++k) {
      if (samples.get(k, shot)) {
        out += k < num_detectors ? " D" + std::to_string(k)
                                 : " L" + std::to_string(k - num_detectors);
      }
    }
    out += '\n';
  }
  return out;
}

TEST(SampleWriter, DetsMatchesPerBitReference) {
  Rng rng(29);
  for (const std::size_t bits : {1u, 9u, 64u, 65u, 200u, 600u}) {
    for (const std::size_t shots : {0u, 1u, 63u, 65u, 300u}) {
      const BitMatrix samples = BitMatrix::random(bits, shots, rng);
      for (const std::size_t num_detectors : {std::size_t{0}, bits / 2, bits}) {
        ASSERT_EQ(samples_to_string(samples, SampleFormat::kDets,
                                    num_detectors),
                  dets_reference(samples, num_detectors))
            << "bits=" << bits << " shots=" << shots
            << " num_detectors=" << num_detectors;
      }
    }
  }
}

class WriterFormats : public ::testing::TestWithParam<SampleFormat> {};

TEST_P(WriterFormats, StaleColumnsAndRowPaddingNeverReachOutput) {
  // Streaming hands the writer fixed-width scratch blocks: columns at or
  // past num_shots, and the padding words past cols(), may hold anything.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 41);
  for (const std::size_t bits : {1u, 9u, 64u, 65u, 200u}) {
    for (const std::size_t shots : {1u, 10u, 63u, 64u, 65u, 130u}) {
      const BitMatrix clean = BitMatrix::random(bits, shots, rng);
      const std::size_t num_detectors = bits / 2;
      const std::string expected =
          samples_to_string(clean, GetParam(), num_detectors);

      BitMatrix block(bits, shots + 100);
      BitMatrix padded = clean;
      for (std::size_t k = 0; k < bits; ++k) {
        for (std::size_t w = 0; w < block.words_per_row(); ++w) {
          block.row(k)[w] = rng.next_word();
        }
        for (std::size_t j = 0; j < shots; ++j) {
          block.set(k, j, clean.get(k, j));
        }
        for (std::size_t c = shots; c < padded.words_per_row() * 64; ++c) {
          padded.row(k)[c / 64] |= 1ull << (c % 64);
        }
      }
      ASSERT_EQ(samples_to_string(block, GetParam(), num_detectors, shots),
                expected)
          << "stale columns, bits=" << bits << " shots=" << shots;
      ASSERT_EQ(samples_to_string(padded, GetParam(), num_detectors),
                expected)
          << "row padding, bits=" << bits << " shots=" << shots;
    }
  }
}

TEST_P(WriterFormats, WriterSinkInShardChunksMatchesWholeMatrix) {
  // The streaming engine's view: the same matrix delivered as
  // 8192-shot chunks, the last one ragged, each in a full-width block
  // whose columns past the chunk's shots hold junk.
  constexpr std::size_t kChunk = 8192;
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 53);
  for (const std::size_t bits : {1u, 65u, 600u}) {
    const std::size_t shots = 2 * kChunk + 1000;
    const BitMatrix samples = BitMatrix::random(bits, shots, rng);
    const std::size_t num_detectors = bits - 1;
    std::ostringstream oss;
    WriterSink sink(oss, GetParam());
    SampleStreamInfo info;
    info.bits_per_shot = bits;
    info.num_detectors = num_detectors;
    info.num_shots = shots;
    sink.begin(info);
    for (std::size_t offset = 0; offset < shots; offset += kChunk) {
      BitMatrix block = BitMatrix::random(bits, kChunk, rng);
      const std::size_t chunk_shots = std::min(kChunk, shots - offset);
      for (std::size_t k = 0; k < bits; ++k) {
        for (std::size_t j = 0; j < chunk_shots; ++j) {
          block.set(k, j, samples.get(k, offset + j));
        }
      }
      SampleChunk chunk;
      chunk.bits = &block;
      chunk.shot_offset = offset;
      chunk.num_shots = chunk_shots;
      sink.consume(chunk);
    }
    sink.end();
    ASSERT_EQ(oss.str(), samples_to_string(samples, GetParam(), num_detectors))
        << "bits=" << bits;
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, WriterFormats,
                         ::testing::Values(SampleFormat::k01,
                                           SampleFormat::kHex,
                                           SampleFormat::kB8,
                                           SampleFormat::kPtb64,
                                           SampleFormat::kDets));

TEST(SampleWriter, ReadRejectsMalformed) {
  std::stringstream bad01("10\n");
  EXPECT_THROW(read_samples(bad01, SampleFormat::k01, 3),
               std::invalid_argument);
  std::stringstream bad_char("10x\n");
  EXPECT_THROW(read_samples(bad_char, SampleFormat::k01, 3),
               std::invalid_argument);
  std::stringstream bad_hex("zz\n");
  EXPECT_THROW(read_samples(bad_hex, SampleFormat::kHex, 8),
               std::invalid_argument);
  std::stringstream partial_b8(std::string("\x01", 1));
  EXPECT_THROW(read_samples(partial_b8, SampleFormat::kB8, 9),
               std::invalid_argument);
  std::stringstream dets("shot D0\n");
  EXPECT_THROW(read_samples(dets, SampleFormat::kDets, 1),
               std::invalid_argument);
}

TEST(SampleWriter, EndToEndWithSampler) {
  const Circuit c = parse_circuit("X 0\nM 0 1\n");
  const BitMatrix samples = sample_circuit(c, 4, 1);
  EXPECT_EQ(samples_to_string(samples, SampleFormat::k01),
            "10\n10\n10\n10\n");
}

}  // namespace
}  // namespace symphase
