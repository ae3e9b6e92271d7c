// Subprocess tests for the symphase CLI binary. The binary path is
// injected by CMake (SYMPHASE_CLI_PATH).

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

namespace symphase {
namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_cli(const std::string& args) {
  const std::string command =
      std::string(SYMPHASE_CLI_PATH) + " " + args + " 2>&1";
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

std::string write_temp_circuit(const std::string& text) {
  const std::string path =
      ::testing::TempDir() + "/cli_test_circuit.stim";
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
  const std::string path =
      ::testing::TempDir() + "/cli_surface.stim";
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
}

TEST(Cli, DetectThreadsDeterministic) {
  const std::string gen_cmd = "gen surface --distance 3 --rounds 2 --p-data "
                              "0.01 --p-meas 0.01";
  const std::string path = ::testing::TempDir() + "/cli_surface_threads.stim";
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

}  // namespace
}  // namespace symphase
