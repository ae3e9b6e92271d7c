// Subprocess tests for the symphase CLI binary. The binary path and the
// corpus directory are injected by CMake (SYMPHASE_CLI_PATH,
// SYMPHASE_DATA_DIR).

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <string>

#include "service/digest.hpp"
#include "test_process.hpp"

namespace symphase {
namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

/// Runs a shell command; `output` is what it wrote to stdout.
CommandResult run_shell(const std::string& command) {
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  CommandResult result;
  std::array<char, 4096> buffer;
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

/// Runs the CLI; `output` holds its stdout and stderr, interleaved.
CommandResult run_cli(const std::string& args) {
  return run_shell(std::string(SYMPHASE_CLI_PATH) + " " + args + " 2>&1");
}

std::string write_temp_circuit(const std::string& text) {
  const std::string path = temp_path("cli_test_circuit") + ".stim";
  FILE* f = fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  fwrite(text.data(), 1, text.size(), f);
  fclose(f);
  return path;
}

TEST(Cli, UsageOnNoArguments) {
  const CommandResult r = run_cli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommand) {
  const CommandResult r = run_cli("frobnicate x");
  EXPECT_EQ(r.exit_code, 2);
}

TEST(Cli, UnknownOptionRejected) {
  // Rejected before the command runs: the usage error is the first and
  // only thing printed, with no samples or circuit output ahead of it.
  const std::string path = write_temp_circuit("M 0\n");
  for (const std::string& args :
       {"sample " + path + " --shots 3 --bogus 1",
        "detect " + path + " --shots 3 --bogus 1",
        "analyze " + path + " --bogus 1", "dem " + path + " --bogus 1",
        std::string("gen surface --distance 3 --bogus 1")}) {
    const CommandResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << args;
    EXPECT_EQ(r.output.rfind("error: unknown option --bogus\n", 0), 0u)
        << args << "\n" << r.output;
  }
}

TEST(Cli, SampleDeterministicCircuit) {
  const std::string path = write_temp_circuit("X 0\nM 0 1\n");
  const CommandResult r = run_cli("sample " + path + " --shots 3");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "10\n10\n10\n");
}

TEST(Cli, SampleHexFormat) {
  const std::string path = write_temp_circuit("X 0\nM 0 1 2 3 4\n");
  const CommandResult r =
      run_cli("sample " + path + " --shots 2 --format hex");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "10\n10\n");  // bits 10000 -> nibbles 1, 0
}

TEST(Cli, SampleSeedReproducible) {
  const std::string path = write_temp_circuit("H 0\nM 0\n");
  const CommandResult a = run_cli("sample " + path + " --shots 20 --seed 5");
  const CommandResult b = run_cli("sample " + path + " --shots 20 --seed 5");
  const CommandResult c = run_cli("sample " + path + " --shots 20 --seed 6");
  EXPECT_EQ(a.output, b.output);
  EXPECT_NE(a.output, c.output);
}

TEST(Cli, AnalyzePrintsExpressions) {
  const std::string path =
      write_temp_circuit("X_ERROR(0.1) 0\nM 0\n");
  const CommandResult r = run_cli("analyze " + path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("m0 = s1"), std::string::npos);
  EXPECT_NE(r.output.find("fault sites:   1"), std::string::npos);
}

TEST(Cli, DemOutput) {
  const std::string path = write_temp_circuit(
      "X_ERROR(0.25) 0\nM 0\nDETECTOR rec[-1]\nOBSERVABLE_INCLUDE(0) "
      "rec[-1]\n");
  const CommandResult r = run_cli("dem " + path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "error(0.25) D0 L0\n");
}

TEST(Cli, DetectRequiresAnnotations) {
  const std::string path = write_temp_circuit("M 0\n");
  const CommandResult r = run_cli("detect " + path);
  EXPECT_EQ(r.exit_code, 1);
}

TEST(Cli, GenFamiliesParseBack) {
  for (const char* family :
       {"surface --distance 3 --rounds 2", "repetition --distance 3",
        "steane --rounds 2", "layered --qubits 10 --layers 3"}) {
    const CommandResult r = run_cli(std::string("gen ") + family);
    ASSERT_EQ(r.exit_code, 0) << family;
    ASSERT_FALSE(r.output.empty()) << family;
  }
}

TEST(Cli, GenPipesIntoDetect) {
  const std::string path = temp_path("cli_surface") + ".stim";
  const CommandResult gen = run_cli(
      "gen surface --distance 3 --rounds 2 --p-data 0.01 > " + path +
      " && " + std::string(SYMPHASE_CLI_PATH) + " detect " + path +
      " --shots 4 --format 01");
  EXPECT_EQ(gen.exit_code, 0);
  // 4 lines of 24 detector bits + space + 1 observable bit.
  int lines = 0;
  for (const char c : gen.output) {
    lines += c == '\n';
  }
  EXPECT_EQ(lines, 4);
}

TEST(Cli, BadNumericOptionIsUsageError) {
  // Malformed numbers must exit with the usage code (2), not abort with
  // an uncaught std::invalid_argument or be misreported as a runtime
  // error (1).
  const std::string path = write_temp_circuit("M 0\n");
  for (const char* args :
       {" --shots abc", " --shots 12x", " --seed -", " --threads 9e9",
        " --shots -1", " --seed -7", " --shots +5",
        " --shots 99999999999999999999999"}) {
    const CommandResult r = run_cli("sample " + path + args);
    EXPECT_EQ(r.exit_code, 2) << args;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << args;
  }
  const CommandResult gen = run_cli("gen surface --p-data nope");
  EXPECT_EQ(gen.exit_code, 2);
}

TEST(Cli, ThreadsFlagKeepsOutputIdentical) {
  const std::string path = write_temp_circuit(
      "H 0\nCNOT 0 1\nX_ERROR(0.1) 0 1\nM 0 1\n");
  const CommandResult one =
      run_cli("sample " + path + " --shots 9000 --seed 3 --threads 1");
  const CommandResult four =
      run_cli("sample " + path + " --shots 9000 --seed 3 --threads 4");
  EXPECT_EQ(one.exit_code, 0);
  EXPECT_EQ(four.exit_code, 0);
  EXPECT_EQ(one.output, four.output);
}

TEST(Cli, BackendFlagSelectsFrameSimulator) {
  const std::string path = write_temp_circuit("X 0\nM 0 1\n");
  const CommandResult r =
      run_cli("sample " + path + " --shots 3 --backend frames");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "10\n10\n10\n");  // deterministic circuit
  const CommandResult bad = run_cli("sample " + path + " --backend quantum");
  EXPECT_EQ(bad.exit_code, 2);
  // Every unknown enum name is a usage error, checked before any work
  // (the --connect address is never dialled).
  for (const std::string& args :
       {"sample " + path + " --format bogus",
        "sample " + path + " --connect 127.0.0.1:1 --priority bogus"}) {
    const CommandResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_EQ(r.output.rfind("error: unknown ", 0), 0u) << args << "\n"
                                                        << r.output;
  }
}

TEST(Cli, DetectThreadsDeterministic) {
  const std::string gen_cmd = "gen surface --distance 3 --rounds 2 --p-data "
                              "0.01 --p-meas 0.01";
  const std::string path = temp_path("cli_surface_threads") + ".stim";
  const CommandResult gen = run_cli(gen_cmd + " > " + path);
  ASSERT_EQ(gen.exit_code, 0);
  const CommandResult one = run_cli("detect " + path +
                                    " --shots 9000 --seed 5 --threads 1");
  const CommandResult four = run_cli("detect " + path +
                                     " --shots 9000 --seed 5 --threads 4");
  EXPECT_EQ(one.exit_code, 0);
  EXPECT_EQ(one.output, four.output);
}

TEST(Cli, ParseErrorReported) {
  const std::string path = write_temp_circuit("NOT_A_GATE 0\n");
  const CommandResult r = run_cli("sample " + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("parse error"), std::string::npos);
}

TEST(Cli, CheckFailurePrintsDetailOnly) {
  // An input error reads as its detail: no failed C++ condition and no
  // source location, relative or absolute.
  const std::string path =
      write_temp_circuit("H 0\nM 0\nDETECTOR rec[-1]\n");
  const CommandResult r = run_cli("sample " + path + " --shots 1");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.output,
            "error: DETECTOR 0 is not deterministic: its parity depends on "
            "the random measurement coin s1\n");
  EXPECT_EQ(r.output.find("check failed"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find(".cpp"), std::string::npos) << r.output;
}

TEST(Cli, FailedOutputWriteExitsOne) {
  // A full disk must not leave a truncated file behind a zero exit.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  const std::string circuit =
      std::string(SYMPHASE_DATA_DIR) + "/surface_d3_r3_noisy.stim";
  for (const std::string& args :
       {"sample " + circuit + " --shots 100000 --format b8",
        "detect " + circuit + " --shots 100000 --format dets",
        std::string("gen surface --distance 3")}) {
    // stderr goes to the pipe, stdout to the full device.
    const CommandResult r = run_shell(std::string(SYMPHASE_CLI_PATH) + " " +
                                      args + " 2>&1 >/dev/full");
    EXPECT_EQ(r.exit_code, 1) << args;
    EXPECT_EQ(r.output.rfind("error: ", 0), 0u) << args << "\n" << r.output;
  }
}

TEST(Cli, OutputBytesPinned) {
  // FNV-128 digests of stdout, recorded with the per-bit writer the tile
  // renderer replaced. They pin every format's bytes across versions and
  // across the scalar and SIMD builds; surface d5 records (145
  // measurement, 121 detection bits) are wider than 64 bits and not a
  // multiple of 8.
  const std::string d3 =
      std::string(SYMPHASE_DATA_DIR) + "/surface_d3_r3_noisy.stim";
  const std::string d5 = temp_path("cli_surface_d5") + ".stim";
  const std::string channels =
      std::string(SYMPHASE_DATA_DIR) + "/noise_channels.stim";
  // The Fig. 3c family at n = 64: 256 measurements, nearly all of them
  // fair coins, over 8,426 symbols.
  const std::string layered = temp_path("cli_layered_64") + ".stim";
  ASSERT_EQ(run_cli("gen surface --distance 5 --rounds 5 --p-data 0.01 "
                    "--p-meas 0.01 > " + d5)
                .exit_code,
            0);
  ASSERT_EQ(run_cli("gen layered --qubits 64 --layers 64 --cnot-pairs 32 "
                    "--p-depolarize 0.001 --seed 3 > " + layered)
                .exit_code,
            0);
  const std::string run = " --shots 20001 --seed 11 --threads 3 --format ";
  const struct {
    std::string args;
    const char* digest;
  } cases[] = {
      {"sample " + d3 + run + "01", "5b9fba1cce5665a84fd2c4a42bbd0ffa"},
      {"sample " + d3 + run + "hex", "5873e8f3a2c3ba2f8daeb345037a577c"},
      {"sample " + d3 + run + "b8", "0be9c90326c43591cb00a4feaf30033c"},
      {"sample " + d3 + run + "ptb64", "c76726201a42dce40403d719b43bef2c"},
      {"detect " + d3 + run + "dets", "e71c3a388968e6f175889db3aa5ce4d7"},
      {"detect " + d3 + run + "01", "ce7125e760641b754905ebd2a41d93a6"},
      {"detect " + d3 + run + "b8", "255d4cdcb8ce7469178e620cbbdfdd07"},
      {"sample " + d5 + run + "01", "f779a0bc8ee6edc7156b57fa39dcbad8"},
      {"sample " + d5 + run + "b8", "93a80d27c04977cf035326b40a88d8a2"},
      {"detect " + d5 + run + "01", "1b15785e72b5cd474afbc599c3a347a2"},
      {"detect " + d5 + run + "b8", "e69798679e58256a5a3a29ead04df5e0"},
      {"detect " + d5 + run + "dets", "d86e63140ac492ed4cb8d551f03fd5f6"},
      // The frame backend, whose gates run the shared rules with the sign
      // lane dead.
      {"sample " + d3 + run + "b8 --backend frames",
       "152ca7318a38283465d684eaa8066312"},
      {"detect " + d5 + run + "dets --backend frames",
       "38f8d5cb8472f86341602032b3a8d744"},
      // Every noise channel on both backends, recorded with the binary
      // from before the channels moved into the gate table.
      {"sample " + channels + run + "b8",
       "0b4ab839f0cd4d8fc24a6e3654a41de7"},
      {"sample " + channels + run + "b8 --backend frames",
       "66d0ccfcffb3d780e596b20c7f80835e"},
      {"detect " + channels + run + "dets",
       "043edffe0bf2cf6e3709d8bf65fa3285"},
      {"detect " + channels + run + "dets --backend frames",
       "37462d3fc4f6a81f34c4514c99c8b59b"},
      // A record made mostly of coins, recorded with the binary from
      // before the scatter stored each output row by its first deposit.
      {"sample " + layered + run + "b8", "565eec2cfa705c128b6294d5ebab107e"},
  };
  for (const auto& c : cases) {
    const CommandResult r =
        run_shell(std::string(SYMPHASE_CLI_PATH) + " " + c.args);
    ASSERT_EQ(r.exit_code, 0) << c.args;
    EXPECT_EQ(fnv128_hex(r.output), c.digest) << c.args;
  }
}

}  // namespace
}  // namespace symphase
