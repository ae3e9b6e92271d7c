#include "api/sample_sink.hpp"

#include <stdexcept>

#include "common/check.hpp"
#include "common/simd_word.hpp"

namespace symphase {

void BitMatrixSink::begin(const SampleStreamInfo& info) {
  matrix_ = BitMatrix(info.bits_per_shot, info.num_shots);
}

void BitMatrixSink::consume(const SampleChunk& chunk) {
  SYMPHASE_CHECK(chunk.bits != nullptr);
  SYMPHASE_CHECK(chunk.bits->rows() == matrix_.rows());
  SYMPHASE_CHECK(chunk.shot_offset % kWordBits == 0);
  SYMPHASE_CHECK(chunk.shot_offset + chunk.num_shots <= matrix_.cols());
  const std::size_t word0 = chunk.shot_offset / kWordBits;
  const std::size_t words = words_for_bits(chunk.num_shots);
  for (std::size_t r = 0; r < matrix_.rows(); ++r) {
    wide::copy_words(matrix_.row(r) + word0, chunk.bits->row(r), words);
  }
}

void check_writable_chunk(const SampleChunk& chunk, SampleFormat format,
                          const SampleStreamInfo& info) {
  SYMPHASE_CHECK(chunk.bits != nullptr);
  SYMPHASE_CHECK_MSG(format != SampleFormat::kPtb64 ||
                         chunk.num_shots % kWordBits == 0 ||
                         chunk.shot_offset + chunk.num_shots == info.num_shots,
                     "ptb64 stream flushed on a non-64-shot boundary mid-run");
}

void WriterSink::consume(const SampleChunk& chunk) {
  check_writable_chunk(chunk, format_, info_);
  write_samples(*chunk.bits, format_, out_, buffer_, info_.num_detectors,
                chunk.num_shots);
  if (!out_.flush()) {
    throw std::runtime_error("cannot write samples: the output stream failed");
  }
}

}  // namespace symphase
