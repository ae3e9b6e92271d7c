#include "process.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

ChildProcess::ChildProcess(const std::vector<std::string>& argv,
                           bool pipe_stdout, const std::string& stderr_path) {
  int fds[2] = {-1, -1};
  if (pipe_stdout && ::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (pipe_stdout) {
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  } else {
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
  }
  posix_spawn_file_actions_addopen(
      &actions, STDERR_FILENO,
      stderr_path.empty() ? "/dev/null" : stderr_path.c_str(),
      O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  const int rc =
      posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (pipe_stdout) {
    ::close(fds[1]);
    out_fd_ = fds[0];
  }
  if (rc != 0) {
    if (out_fd_ >= 0) {
      ::close(out_fd_);
    }
    throw std::runtime_error("cannot start " + argv[0] + ": " +
                             std::strerror(rc));
  }
}

ChildProcess::~ChildProcess() {
  if (!reaped_) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
  }
}

long ChildProcess::read_stdout(char* buf, std::size_t len) {
  while (true) {
    const ssize_t n = ::read(out_fd_, buf, len);
    if (n >= 0 || errno != EINTR) {
      return static_cast<long>(n);
    }
  }
}

void ChildProcess::signal(int sig) {
  if (!reaped_) {
    ::kill(pid_, sig);
  }
}

int ChildProcess::wait(double timeout_s, double* cpu_s) {
  int status = -1;
  if (reaped_) {
    return status;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  struct rusage usage {};
  while (true) {
    const pid_t r = ::wait4(pid_, &status, WNOHANG, &usage);
    if (r == pid_) {
      break;
    }
    if (r < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("wait4: ") + std::strerror(errno));
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  reaped_ = true;
  if (cpu_s != nullptr) {
    const auto sec = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) / 1e6;
    };
    *cpu_s = sec(usage.ru_utime) + sec(usage.ru_stime);
  }
  return status;
}

bool ChildProcess::ok(int status) {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

long peak_rss_kb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      long kb = 0;
      in >> kb;
      return kb;
    }
    in.ignore(1 << 16, '\n');
  }
  return 0;
}

long self_peak_rss_kb() { return peak_rss_kb(::getpid()); }

}  // namespace perfbench
