#pragma once

/// \file process.hpp
/// Child processes for the CLI and served workloads: spawn with an
/// optional stdout pipe, reap, and never leave a child running — the
/// destructor kills and reaps whatever is still alive.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ChildProcess {
 public:
  /// Starts argv[0] with the given arguments. With `pipe_stdout`, the
  /// child's stdout is readable through read_stdout(); otherwise it
  /// goes to /dev/null. stderr goes to `stderr_path` (or /dev/null).
  ChildProcess(const std::vector<std::string>& argv, bool pipe_stdout,
               const std::string& stderr_path = "");
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ~ChildProcess();

  pid_t pid() const { return pid_; }

  /// Blocking read from the stdout pipe; 0 at EOF, -1 on error.
  long read_stdout(char* buf, std::size_t len);

  /// Sends `sig` if the child has not been reaped yet.
  void signal(int sig);

  /// Waits up to `timeout_s` for the child to exit; kills it (SIGKILL)
  /// when the timeout passes. Returns the wait status; `cpu_s`, when
  /// given, receives the child's user + system CPU time.
  int wait(double timeout_s, double* cpu_s = nullptr);

  /// True when a wait status says "exited normally with status 0".
  static bool ok(int status);

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  bool reaped_ = false;
};

/// VmHWM (peak resident set) of a live process, in kB; 0 if unknown.
/// Unlike a reaped child's ru_maxrss, which posix_spawn's vfork makes
/// include the parent's own resident set, this is the child's alone.
long peak_rss_kb(pid_t pid);

/// This process's own peak resident set, in kB.
long self_peak_rss_kb();

}  // namespace perfbench
