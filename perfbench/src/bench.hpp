#pragma once

/// \file bench.hpp
/// Run options and the entry point of each workload and of the traced
/// per-layer measurements.

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// The checkout's data/ directory (corpus circuits).
  std::string data_dir;
  /// The `symphase` binary built from the checkout.
  std::string cli_path;
  /// Output directory for port files, server logs and span files.
  std::string out_dir;
  /// Hardware threads; the in-process workloads sample at this count.
  std::size_t nproc = 1;
};

void run_qec_d9_detect(const Options& opt, Report& report, Tracer& tracer);
void run_fig3_layered(const Options& opt, Report& report, Tracer& tracer);
void run_cli_b8(const Options& opt, Report& report, Tracer& tracer);
void run_served_mixed(const Options& opt, Report& report, Tracer& tracer);

/// The d3 corpus circuit the CLI and the served small class sample.
std::string d3_corpus_path(const Options& opt);

/// `perfbench rss-probe`: parses and prepares the task of qec_d9_detect
/// or fig3_layered, samples a few runs of it at one thread, and returns
/// this process's peak resident set in kB.
long rss_probe_kb(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
