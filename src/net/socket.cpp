#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/check.hpp"

namespace symphase {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  const int one = 1;
  // Best effort: a transport that works without Nagle disabled still
  // works with it, just with worse small-frame latency.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// A blocking connect() that a signal interrupts (EINTR) keeps
/// connecting in the background and cannot be restarted; wait for it
/// and return its outcome, leaving errno set on failure.
bool finish_interrupted_connect(int fd) {
  pollfd p{fd, POLLOUT, 0};
  while (::poll(&p, 1, -1) < 0) {
    if (errno != EINTR) {
      return false;
    }
  }
  int error = 0;
  socklen_t len = sizeof error;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len) != 0) {
    return false;
  }
  errno = error;
  return error == 0;
}

struct AddrInfoHolder {
  addrinfo* list = nullptr;
  AddrInfoHolder() = default;
  AddrInfoHolder(const AddrInfoHolder&) = delete;
  AddrInfoHolder& operator=(const AddrInfoHolder&) = delete;
  AddrInfoHolder(AddrInfoHolder&& other) noexcept : list(other.list) {
    other.list = nullptr;
  }
  AddrInfoHolder& operator=(AddrInfoHolder&&) = delete;
  ~AddrInfoHolder() {
    if (list != nullptr) {
      ::freeaddrinfo(list);
    }
  }
};

/// getaddrinfo over the parsed spec; empty host maps to the wildcard
/// (listen) or loopback (connect).
AddrInfoHolder resolve(const HostPort& at, bool for_listen) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = for_listen ? AI_PASSIVE : 0;
  const std::string port = std::to_string(at.port);
  AddrInfoHolder holder;
  const char* node = at.host.empty() ? nullptr : at.host.c_str();
  const int rc = ::getaddrinfo(node, port.c_str(), &hints, &holder.list);
  if (rc != 0) {
    throw std::runtime_error("cannot resolve '" + at.host +
                             "': " + ::gai_strerror(rc));
  }
  return holder;
}

}  // namespace

void Socket::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

HostPort parse_host_port(std::string_view spec) {
  HostPort result;
  std::string_view host;
  std::string_view port;
  if (!spec.empty() && spec.front() == '[') {
    // [v6-literal]:port
    const std::size_t close = spec.find(']');
    SYMPHASE_CHECK_MSG(close != std::string_view::npos &&
                           close + 1 < spec.size() && spec[close + 1] == ':',
                       "malformed address '" << spec
                                             << "' (expected [host]:port)");
    host = spec.substr(1, close - 1);
    port = spec.substr(close + 2);
  } else {
    const std::size_t colon = spec.rfind(':');
    SYMPHASE_CHECK_MSG(colon != std::string_view::npos,
                       "malformed address '" << spec
                                             << "' (expected host:port)");
    host = spec.substr(0, colon);
    port = spec.substr(colon + 1);
  }
  SYMPHASE_CHECK_MSG(!port.empty() &&
                         port.find_first_not_of("0123456789") ==
                             std::string_view::npos &&
                         port.size() <= 5,
                     "malformed port in '" << spec << "'");
  const unsigned long value = std::stoul(std::string(port));
  SYMPHASE_CHECK_MSG(value <= 65535, "port out of range in '" << spec << "'");
  result.host = std::string(host);
  result.port = static_cast<std::uint16_t>(value);
  return result;
}

Socket tcp_listen(const HostPort& at) {
  const AddrInfoHolder addresses = resolve(at, /*for_listen=*/true);
  std::string last_error = "no addresses";
  for (addrinfo* ai = addresses.list; ai != nullptr; ai = ai->ai_next) {
    Socket socket(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!socket.valid()) {
      last_error = std::strerror(errno);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof one);
    if (::bind(socket.fd(), ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(socket.fd(), SOMAXCONN) != 0) {
      last_error = std::strerror(errno);
      continue;
    }
    return socket;
  }
  throw std::runtime_error("cannot listen on " + at.host + ":" +
                           std::to_string(at.port) + ": " + last_error);
}

std::uint16_t local_port(const Socket& socket) {
  sockaddr_storage addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    throw_errno("getsockname");
  }
  if (addr.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<const sockaddr_in*>(&addr)->sin_port);
  }
  if (addr.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<const sockaddr_in6*>(&addr)->sin6_port);
  }
  throw std::runtime_error("unexpected socket family");
}

Socket tcp_accept(const Socket& listener) {
  const int fd = ::accept(listener.fd(), nullptr, nullptr);
  if (fd < 0) {
    return Socket();
  }
  set_nodelay(fd);
  return Socket(fd);
}

Socket tcp_connect(const HostPort& to) {
  HostPort target = to;
  if (target.host.empty()) {
    target.host = "127.0.0.1";
  }
  const AddrInfoHolder addresses = resolve(target, /*for_listen=*/false);
  std::string last_error = "no addresses";
  for (addrinfo* ai = addresses.list; ai != nullptr; ai = ai->ai_next) {
    Socket socket(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!socket.valid()) {
      last_error = std::strerror(errno);
      continue;
    }
    if (::connect(socket.fd(), ai->ai_addr, ai->ai_addrlen) != 0 &&
        !(errno == EINTR && finish_interrupted_connect(socket.fd()))) {
      last_error = std::strerror(errno);
      continue;
    }
    set_nodelay(socket.fd());
    return socket;
  }
  throw std::runtime_error("cannot connect to " + target.host + ":" +
                           std::to_string(target.port) + ": " + last_error);
}

void set_nonblocking(int fd, bool enable) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    throw_errno("fcntl(F_GETFL)");
  }
  const int next = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, next) < 0) {
    throw_errno("fcntl(F_SETFL)");
  }
}

void send_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace symphase
