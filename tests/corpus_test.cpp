// Round-trip and sampling smoke tests over the checked-in circuit corpus
// (data/*.stim). Paths are injected by CMake (SYMPHASE_DATA_DIR).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/symphase.hpp"

namespace symphase {
namespace {

const std::vector<std::string>& corpus_files() {
  static const std::vector<std::string> files = {
      "fig1.stim",          "teleport.stim",
      "repetition_d5_r3.stim", "steane_r2.stim",
      "surface_d3_r3.stim", "surface_d3_r3_noisy.stim",
      "noise_channels.stim"};
  return files;
}

std::string path_of(const std::string& name) {
  return std::string(SYMPHASE_DATA_DIR) + "/" + name;
}

class CorpusTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusTest, ParsesAndRoundTrips) {
  const Circuit circuit = parse_circuit_file(path_of(GetParam()));
  EXPECT_GT(circuit.num_qubits(), 0u);
  EXPECT_GT(circuit.num_measurements(), 0u);
  EXPECT_EQ(parse_circuit(circuit.to_text()), circuit);
}

TEST_P(CorpusTest, CompilesAndSamples) {
  const Circuit circuit = parse_circuit_file(path_of(GetParam()));
  const CompiledSampler sampler = CompiledSampler::compile(circuit);
  const BitMatrix samples = sampler.sample(256, 7);
  EXPECT_EQ(samples.rows(), circuit.num_measurements());
  EXPECT_EQ(samples.cols(), 256u);
  // Exact marginals are well-defined for every measurement.
  for (std::size_t k = 0; k < sampler.num_measurements(); ++k) {
    const double p = sampler.outcome_probability(k);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_P(CorpusTest, FrameSamplerHandlesIt) {
  const Circuit circuit = parse_circuit_file(path_of(GetParam()));
  FrameSimulator frame(circuit, 9);
  const BitMatrix samples = frame.sample(128, 10);
  EXPECT_EQ(samples.rows(), circuit.num_measurements());
}

INSTANTIATE_TEST_SUITE_P(
    Files, CorpusTest, ::testing::ValuesIn(corpus_files()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

TEST(Corpus, MissingFileThrows) {
  EXPECT_THROW(parse_circuit_file(path_of("nonexistent.stim")),
               std::invalid_argument);
}

}  // namespace
}  // namespace symphase
