#pragma once

// Helpers for tests that write temp files or fork the CLI: names that
// stay apart when several runs of a suite share one TempDir, and a guard
// that kills and reaps a forked child when an ASSERT_* returns early.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>

namespace symphase {

/// `TempDir()/stem_<pid>`: private to this process, so concurrent runs
/// of a suite never share a port file, log or circuit file.
inline std::string temp_path(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem + "_" + std::to_string(getpid());
}

/// Owns a forked child until the test reaps it: if the test returns
/// first (a failed ASSERT_*), the destructor kills and reaps it, so no
/// `symphase serve` is left running.
class ChildGuard {
 public:
  explicit ChildGuard(pid_t pid) : pid_(pid) {}
  ChildGuard(const ChildGuard&) = delete;
  ChildGuard& operator=(const ChildGuard&) = delete;
  ~ChildGuard() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  /// The test reaped the child itself.
  void release() { pid_ = -1; }

 private:
  pid_t pid_;
};

}  // namespace symphase
