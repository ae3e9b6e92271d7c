// perfbench: the layer-attributed benchmark binary.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --data-dir DIR --cli PATH --out-dir DIR
//   perfbench selftest
//   perfbench --print-backend
//   perfbench rss-probe --workload W --seed N
//
// perfbench/run.py builds this binary and the `symphase` CLI from the
// checkout and calls `run`, which starts `rss-probe` itself; see
// perfbench/README.md.

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/simd_word.hpp"
#include "selftest.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --data-dir DIR --cli PATH --out-dir DIR\n"
               "       perfbench selftest | --print-backend\n"
               "       perfbench rss-probe --workload W --seed N\n";
  std::exit(2);
}

Options parse_run(int argc, char** argv) {
  Options opt;
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) {
      usage(std::string("missing value for ") + argv[i]);
    }
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--data-dir") {
      opt.data_dir = value;
    } else if (key == "--cli") {
      opt.cli_path = value;
    } else if (key == "--out-dir") {
      opt.out_dir = value;
    } else {
      usage("unknown option " + key);
    }
  }
  if (opt.workload.empty() || opt.data_dir.empty() || opt.cli_path.empty() ||
      opt.out_dir.empty() || !(opt.seconds > 0)) {
    usage("run needs --workload, --seconds > 0, --data-dir, --cli, --out-dir");
  }
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());
  return opt;
}

void write_spans(const Options& opt, const perfbench::Tracer& tracer,
                 perfbench::Report& report) {
  const std::string path = opt.out_dir + "/trace-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".json";
  std::ofstream(path, std::ios::trunc) << tracer.chrome_json();
  report.note("spans written to " + path);
  std::ostringstream table;
  table << std::left << std::setw(16) << "span" << std::right << std::setw(9)
        << "count" << std::setw(12) << "total_s" << std::setw(12) << "self_s";
  report.note(table.str());
  for (const perfbench::SpanTotals& t : perfbench::span_totals(tracer.spans())) {
    std::ostringstream row;
    row << std::left << std::setw(16) << t.name << std::right << std::setw(9)
        << t.count << std::setw(12) << std::fixed << std::setprecision(4)
        << t.total_s << std::setw(12) << t.self_s;
    report.note(row.str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage("missing command");
  }
  const std::string command = argv[1];
  if (command == "--print-backend") {
    std::cout << SYMPHASE_WIDEWORD_BACKEND << std::endl;
    return 0;
  }
  if (command == "selftest") {
    const int failures = perfbench::run_selftests(std::cerr);
    std::cerr << "perfbench selftest: "
              << (failures == 0 ? "ok" : std::to_string(failures) + " failed")
              << std::endl;
    return failures == 0 ? 0 : 1;
  }
  if (command == "rss-probe") {
    if (argc != 6 || std::strcmp(argv[2], "--workload") != 0 ||
        std::strcmp(argv[4], "--seed") != 0) {
      usage("rss-probe needs --workload W --seed N");
    }
    try {
      std::cout << perfbench::rss_probe_kb(
                       argv[3], std::strtoull(argv[5], nullptr, 10))
                << std::endl;
      return 0;
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << std::endl;
      return 1;
    }
  }
  if (command != "run") {
    usage("unknown command " + command);
  }
  const Options opt = parse_run(argc, argv);
  try {
    if (perfbench::run_selftests(std::cerr) != 0) {
      std::cerr << "perfbench: self-tests failed; not measuring" << std::endl;
      return 1;
    }
    std::filesystem::create_directories(opt.out_dir);
    perfbench::Report report;
    perfbench::Tracer tracer;
    tracer.enable(opt.trace);
    if (opt.workload == "qec_d9_detect") {
      perfbench::run_qec_d9_detect(opt, report, tracer);
    } else if (opt.workload == "fig3_layered") {
      perfbench::run_fig3_layered(opt, report, tracer);
    } else if (opt.workload == "cli_b8") {
      perfbench::run_cli_b8(opt, report, tracer);
    } else if (opt.workload == "served_mixed") {
      perfbench::run_served_mixed(opt, report, tracer);
    } else {
      usage("unknown workload " + opt.workload);
    }
    if (opt.trace) {
      write_spans(opt, tracer, report);
    }
    report.print(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << std::endl;
    return 1;
  }
}
