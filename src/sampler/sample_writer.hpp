#pragma once

/// \file sample_writer.hpp
/// Serialization of sample matrices to the common interchange formats.
///
/// Sample matrices everywhere in this library are measurement-major
/// (row = one measurement/detector across shots). Files are shot-major
/// (one record per shot), matching what decoders and analysis scripts
/// consume. The renderer transposes in 64×64-bit tiles, never bit by
/// bit: for each 64-shot group it gathers that group's word from every
/// row (zero past the last row), transposes each 64-row block with
/// transpose_64x64_strided, and is left with shot j's record as
/// contiguous little-endian words (record bit k at word k/64, bit
/// k%64). Every shot-major format is then a byte-level rewrite of those
/// words into a byte buffer; kPtb64 is already the matrix's own word
/// layout and copies the masked row words instead.
///
/// Formats:
///   k01  — ASCII '0'/'1' per bit, one line per shot.
///   kHex — lowercase hex per shot (4 bits/char, LSB-first nibbles),
///          one line per shot.
///   kB8  — raw binary: ceil(bits/8) bytes per shot, bit i of the record
///          at byte i/8, bit position i%8 (Stim's b8 layout).
///   kPtb64— raw binary, transposed in 64-shot groups (Stim's ptb64):
///          for each group of 64 shots, one little-endian u64 per record
///          bit, bit j of the word = that record bit in shot 64g+j. The
///          final group is zero-padded when shots % 64 != 0, so readers
///          need the true shot count out of band.
///   kDets— sparse ASCII: "shot D1 D5 L0" event lists, one line per
///          shot (detector sampling only; pass num_detectors so indices
///          beyond it print as logical observables).
///
/// Record boundaries vs. streaming: k01/kHex/kB8/kDets records are
/// per-shot, so any shot-aligned chunking concatenates cleanly. kPtb64
/// records span 64 shots, so a streamed writer may only flush on
/// 64-shot-aligned boundaries (the streaming sinks enforce this through
/// check_writable_chunk in api/sample_sink.hpp; the engine's
/// word-aligned shard chunks always satisfy it).

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "bitvec/bit_matrix.hpp"
#include "common/enum_names.hpp"

namespace symphase {

enum class SampleFormat { k01, kHex, kB8, kPtb64, kDets };

inline constexpr EnumNames<SampleFormat, 5> kSampleFormatNames{
    "sample format", {"01", "hex", "b8", "ptb64", "dets"}};

constexpr std::string_view sample_format_name(SampleFormat format) {
  return kSampleFormatNames.name(format);
}

/// Parses "01", "hex", "b8", "ptb64", "dets"; throws
/// std::invalid_argument on anything else.
inline SampleFormat sample_format_from_name(std::string_view name) {
  return kSampleFormatNames.from_name(name);
}

/// Appends shots [shot_begin, shot_end) of `samples` (measurement-major)
/// to `out`, shot-major in `format`. `shot_begin` must be a multiple of
/// 64; `shot_end` is capped at samples.cols(). Columns at or past
/// `shot_end` never reach the output, so a fixed-width block with stale
/// columns renders exactly like a matrix holding only the valid shots.
/// For kDets, rows with index >= num_detectors are rendered as
/// "L<index - num_detectors>" (SIZE_MAX: every row is a detector).
void append_samples(std::string& out, const BitMatrix& samples,
                    SampleFormat format, std::size_t num_detectors,
                    std::size_t shot_begin, std::size_t shot_end);

/// Writes `samples` to `out` shot-major in `format`. Renders a fixed
/// number of 64-shot groups at a time into `buffer` and hands each batch
/// to the stream with one write, so memory stays bounded however many
/// shots there are; the caller keeps `buffer` to reuse its allocation
/// across calls. `num_shots` caps how many leading columns are written
/// (default: all) — the streaming WriterSink uses this to emit only the
/// valid shots of a fixed-width shard block.
void write_samples(const BitMatrix& samples, SampleFormat format,
                   std::ostream& out, std::string& buffer,
                   std::size_t num_detectors = SIZE_MAX,
                   std::size_t num_shots = SIZE_MAX);

/// write_samples with a buffer of its own.
void write_samples(const BitMatrix& samples, SampleFormat format,
                   std::ostream& out,
                   std::size_t num_detectors = SIZE_MAX,
                   std::size_t num_shots = SIZE_MAX);

/// Convenience: render to a string.
std::string samples_to_string(const BitMatrix& samples, SampleFormat format,
                              std::size_t num_detectors = SIZE_MAX,
                              std::size_t num_shots = SIZE_MAX);

/// Reads back a k01/kHex/kB8/kPtb64 stream into a measurement-major
/// matrix with `bits_per_shot` columns-per-record. Round-trips
/// write_samples exactly, except that kPtb64's zero-padded final group
/// makes the returned shot count a multiple of 64. Throws on malformed
/// input.
BitMatrix read_samples(std::istream& in, SampleFormat format,
                       std::size_t bits_per_shot);

}  // namespace symphase
