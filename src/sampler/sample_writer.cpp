#include "sampler/sample_writer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstring>
#include <istream>
#include <limits>
#include <vector>

#include "bitvec/transpose.hpp"
#include "common/check.hpp"

namespace symphase {

namespace {

/// Shots write_samples renders per ostream write: eight 64-shot groups,
/// 370 KB of 01 text for 721-bit records, 2.5 KB of 5-byte b8 records.
constexpr std::size_t kShotsPerWrite = 8 * kWordBits;

/// The '0'/'1' characters of every byte value, LSB first.
constexpr std::array<std::array<char, 8>, 256> kBitChars = [] {
  std::array<std::array<char, 8>, 256> table{};
  for (std::size_t value = 0; value < 256; ++value) {
    for (std::size_t b = 0; b < 8; ++b) {
      table[value][b] = (value >> b) & 1 ? '1' : '0';
    }
  }
  return table;
}();

constexpr char kHexDigits[] = "0123456789abcdef";

/// Widest decimal rendering of a std::size_t.
constexpr std::size_t kMaxDigits =
    std::numeric_limits<std::size_t>::digits10 + 1;

/// Byte i of a record held as little-endian words.
std::uint8_t record_byte(const std::uint64_t* words, std::size_t i) {
  return static_cast<std::uint8_t>(words[i / 8] >> (8 * (i % 8)));
}

/// Bytes a record write may run past the record's end: b8 writes whole
/// words and 01 whole 8-character groups. The next record, or the trim
/// at the end of the group, overwrites them.
constexpr std::size_t kSlack = 8;

/// Writes the low `n` bytes of the little-endian word array `words`, one
/// 8-byte store per word, so up to kSlack - 1 bytes past dst + n change.
char* put_bytes(char* dst, const std::uint64_t* words, std::size_t n) {
  for (std::size_t w = 0; w * 8 < n; ++w) {
    char bytes[8];
    for (std::size_t b = 0; b < 8; ++b) {
      bytes[b] = static_cast<char>(words[w] >> (8 * b));
    }
    std::memcpy(dst + 8 * w, bytes, 8);
  }
  return dst + n;
}

char* put_record_01(char* p, const std::uint64_t* record, std::size_t bits) {
  for (std::size_t i = 0; i < bits / 8; ++i, p += 8) {
    std::memcpy(p, kBitChars[record_byte(record, i)].data(), 8);
  }
  // A partial last byte advances only past its valid characters; the
  // newline and the next record overwrite the rest (kSlack).
  if (bits % 8 != 0) {
    std::memcpy(p, kBitChars[record_byte(record, bits / 8)].data(), 8);
    p += bits % 8;
  }
  *p++ = '\n';
  return p;
}

char* put_record_hex(char* p, const std::uint64_t* record,
                     std::size_t nibbles) {
  for (std::size_t n = 0; n < nibbles; ++n) {
    *p++ = kHexDigits[(record[n / 16] >> (4 * (n % 16))) & 0xf];
  }
  *p++ = '\n';
  return p;
}

char* put_record_dets(char* p, const std::uint64_t* record,
                      std::size_t words, std::size_t num_detectors) {
  std::memcpy(p, "shot", 4);
  p += 4;
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t word = record[w]; word != 0; word &= word - 1) {
      const std::size_t k =
          w * kWordBits + static_cast<std::size_t>(std::countr_zero(word));
      *p++ = ' ';
      *p++ = k < num_detectors ? 'D' : 'L';
      p = std::to_chars(p, p + kMaxDigits,
                        k < num_detectors ? k : k - num_detectors)
              .ptr;
    }
  }
  *p++ = '\n';
  return p;
}

/// kPtb64 is the matrix's own word layout: one u64 per record bit per
/// 64-shot group. Stale bits beyond the last valid shot are masked off,
/// so the final partial group is zero-padded.
void append_ptb64(std::string& out, const BitMatrix& samples,
                  std::size_t shot_begin, std::size_t shot_end) {
  for (std::size_t shot0 = shot_begin; shot0 < shot_end; shot0 += kWordBits) {
    const std::size_t valid = std::min(shot_end - shot0, kWordBits);
    const std::uint64_t mask =
        valid == kWordBits ? ~0ull : (1ull << valid) - 1;
    const std::size_t pos = out.size();
    out.resize(pos + samples.rows() * 8);
    char* p = out.data() + pos;
    for (std::size_t k = 0; k < samples.rows(); ++k) {
      const std::uint64_t word = samples.row(k)[shot0 / kWordBits] & mask;
      p = put_bytes(p, &word, 8);
    }
  }
}

}  // namespace

void append_samples(std::string& out, const BitMatrix& samples,
                    SampleFormat format, std::size_t num_detectors,
                    std::size_t shot_begin, std::size_t shot_end) {
  const std::size_t bits = samples.rows();
  shot_end = std::min(shot_end, samples.cols());
  if (num_detectors == SIZE_MAX) {
    num_detectors = bits;
  }
  SYMPHASE_CHECK(num_detectors <= bits);
  SYMPHASE_CHECK(shot_begin % kWordBits == 0);
  if (format == SampleFormat::kPtb64) {
    append_ptb64(out, samples, shot_begin, shot_end);
    return;
  }
  // Record words per shot = 64-row blocks of the matrix. Tile b's row i
  // (record bit 64b+i) lives at tiles[i * words + b], so once every
  // block is transposed in place, shot j's record is the contiguous
  // span tiles[j * words, (j + 1) * words).
  const std::size_t words = words_for_bits(bits);
  const std::size_t nibbles = ceil_div(bits, 4);
  const std::size_t b8_bytes = ceil_div(bits, 8);
  const std::size_t record_bytes = format == SampleFormat::k01    ? bits + 1
                                   : format == SampleFormat::kHex ? nibbles + 1
                                                                  : b8_bytes;
  std::vector<std::uint64_t> tiles(kWordBits * words);
  for (std::size_t shot0 = shot_begin; shot0 < shot_end; shot0 += kWordBits) {
    const std::size_t valid = std::min(shot_end - shot0, kWordBits);
    for (std::size_t k = 0; k < kWordBits * words; ++k) {
      tiles[(k % kWordBits) * words + k / kWordBits] =
          k < bits ? samples.row(k)[shot0 / kWordBits] : 0;
    }
    for (std::size_t b = 0; b < words; ++b) {
      transpose_64x64_strided(tiles.data() + b, words);
    }
    // Size the group's bytes up front (exact for the fixed-width
    // formats, an upper bound for dets) plus kSlack, write through a raw
    // pointer, then trim to what was written.
    std::size_t bound = valid * record_bytes;
    if (format == SampleFormat::kDets) {
      // "shot\n", plus " D" and at most kMaxDigits digits per event.
      std::size_t events = 0;
      for (std::size_t i = 0; i < valid * words; ++i) {
        events += static_cast<std::size_t>(std::popcount(tiles[i]));
      }
      bound = valid * 5 + events * (2 + kMaxDigits);
    }
    const std::size_t pos = out.size();
    out.resize(pos + bound + kSlack);
    char* p = out.data() + pos;
    for (std::size_t j = 0; j < valid; ++j) {
      const std::uint64_t* record = tiles.data() + j * words;
      switch (format) {
        case SampleFormat::k01:
          p = put_record_01(p, record, bits);
          break;
        case SampleFormat::kHex:
          p = put_record_hex(p, record, nibbles);
          break;
        case SampleFormat::kB8:
          p = put_bytes(p, record, b8_bytes);
          break;
        case SampleFormat::kDets:
          p = put_record_dets(p, record, words, num_detectors);
          break;
        case SampleFormat::kPtb64:
          break;
      }
    }
    out.resize(static_cast<std::size_t>(p - out.data()));
  }
}

void write_samples(const BitMatrix& samples, SampleFormat format,
                   std::ostream& out, std::string& buffer,
                   std::size_t num_detectors, std::size_t num_shots) {
  const std::size_t shots = std::min(num_shots, samples.cols());
  for (std::size_t begin = 0; begin < shots; begin += kShotsPerWrite) {
    buffer.clear();
    append_samples(buffer, samples, format, num_detectors, begin,
                   std::min(begin + kShotsPerWrite, shots));
    out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  }
}

void write_samples(const BitMatrix& samples, SampleFormat format,
                   std::ostream& out, std::size_t num_detectors,
                   std::size_t num_shots) {
  std::string buffer;
  write_samples(samples, format, out, buffer, num_detectors, num_shots);
}

std::string samples_to_string(const BitMatrix& samples, SampleFormat format,
                              std::size_t num_detectors,
                              std::size_t num_shots) {
  std::string out;
  append_samples(out, samples, format, num_detectors, 0, num_shots);
  return out;
}

namespace {

int hex_value(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  SYMPHASE_CHECK_MSG(false, "invalid hex digit '" << c << "'");
  return 0;
}

}  // namespace

BitMatrix read_samples(std::istream& in, SampleFormat format,
                       std::size_t bits_per_shot) {
  std::vector<std::vector<bool>> shots;
  switch (format) {
    case SampleFormat::k01: {
      std::string line;
      while (std::getline(in, line)) {
        if (line.empty()) {
          continue;
        }
        SYMPHASE_CHECK_MSG(line.size() == bits_per_shot,
                           "01 record length " << line.size() << " != "
                                               << bits_per_shot);
        std::vector<bool> shot(bits_per_shot);
        for (std::size_t k = 0; k < bits_per_shot; ++k) {
          SYMPHASE_CHECK_MSG(line[k] == '0' || line[k] == '1',
                             "invalid 01 character");
          shot[k] = line[k] == '1';
        }
        shots.push_back(std::move(shot));
      }
      break;
    }
    case SampleFormat::kHex: {
      const std::size_t nibbles = ceil_div(bits_per_shot, 4);
      std::string line;
      while (std::getline(in, line)) {
        if (line.empty()) {
          continue;
        }
        SYMPHASE_CHECK_MSG(line.size() == nibbles,
                           "hex record length mismatch");
        std::vector<bool> shot(bits_per_shot);
        for (std::size_t k = 0; k < bits_per_shot; ++k) {
          shot[k] = (hex_value(line[k / 4]) >> (k % 4)) & 1;
        }
        shots.push_back(std::move(shot));
      }
      break;
    }
    case SampleFormat::kB8: {
      const std::size_t bytes = ceil_div(bits_per_shot, 8);
      std::vector<char> record(bytes);
      while (in.read(record.data(),
                     static_cast<std::streamsize>(record.size()))) {
        std::vector<bool> shot(bits_per_shot);
        for (std::size_t k = 0; k < bits_per_shot; ++k) {
          shot[k] = (static_cast<unsigned char>(record[k / 8]) >> (k % 8)) & 1;
        }
        shots.push_back(std::move(shot));
      }
      SYMPHASE_CHECK_MSG(in.gcount() == 0, "trailing partial b8 record");
      break;
    }
    case SampleFormat::kPtb64: {
      SYMPHASE_CHECK_MSG(bits_per_shot > 0,
                         "ptb64 needs at least one bit per shot");
      std::vector<char> group(bits_per_shot * 8);
      while (in.read(group.data(),
                     static_cast<std::streamsize>(group.size()))) {
        const std::size_t shot0 = shots.size();
        shots.resize(shot0 + kWordBits,
                     std::vector<bool>(bits_per_shot, false));
        for (std::size_t k = 0; k < bits_per_shot; ++k) {
          std::uint64_t word = 0;
          for (std::size_t b = 0; b < 8; ++b) {
            word |= static_cast<std::uint64_t>(
                        static_cast<unsigned char>(group[k * 8 + b]))
                    << (8 * b);
          }
          for (std::size_t j = 0; j < kWordBits; ++j) {
            shots[shot0 + j][k] = (word >> j) & 1;
          }
        }
      }
      SYMPHASE_CHECK_MSG(in.gcount() == 0, "trailing partial ptb64 group");
      break;
    }
    case SampleFormat::kDets:
      SYMPHASE_CHECK_MSG(false, "dets format is write-only");
      break;
  }

  BitMatrix out(bits_per_shot, shots.size());
  for (std::size_t shot = 0; shot < shots.size(); ++shot) {
    for (std::size_t k = 0; k < bits_per_shot; ++k) {
      if (shots[shot][k]) {
        out.set(k, shot, true);
      }
    }
  }
  return out;
}

}  // namespace symphase
