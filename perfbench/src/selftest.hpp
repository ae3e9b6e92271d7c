#pragma once

#include <ostream>

namespace perfbench {

/// Runs the benchmark's self-tests; returns the number of failures and
/// describes each on `log`.
int run_selftests(std::ostream& log);

}  // namespace perfbench
