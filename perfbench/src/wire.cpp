#include "wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

void put_le(char* out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

std::uint64_t get_le(const char* in, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[i]))
         << (8 * i);
  }
  return v;
}

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') {
      c = static_cast<char>(c - 'A' + 'a');
    }
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

constexpr std::size_t kMaxLine = 64 * 1024;

}  // namespace

std::string encode_frame(const FrameHead& head, std::string_view payload) {
  std::string out(kHeaderBytes, '\0');
  put_le(&out[0], head.request_id, 8);
  put_le(&out[8], head.chunk_index, 4);
  put_le(&out[12], payload.size(), 4);
  out[16] = static_cast<char>(head.flags);
  out.append(payload);
  return out;
}

FrameHead decode_head(const char* bytes) {
  FrameHead h;
  h.request_id = get_le(bytes, 8);
  h.chunk_index = static_cast<std::uint32_t>(get_le(bytes + 8, 4));
  h.payload_bytes = static_cast<std::uint32_t>(get_le(bytes + 12, 4));
  h.flags = static_cast<std::uint8_t>(bytes[16]);
  return h;
}

StageTimes parse_server_timing(std::string_view line) {
  StageTimes t;
  int seen = 0;
  while (!line.empty()) {
    const std::size_t comma = line.find(',');
    const std::string_view item = trim(line.substr(0, comma));
    line = comma == std::string_view::npos ? std::string_view{}
                                           : line.substr(comma + 1);
    const std::size_t semi = item.find(';');
    if (semi == std::string_view::npos) {
      continue;
    }
    const std::string_view name = trim(item.substr(0, semi));
    const std::string_view param = trim(item.substr(semi + 1));
    if (param.substr(0, 4) != "dur=") {
      continue;
    }
    const std::string value(param.substr(4));
    char* end = nullptr;
    const double ms = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      return t;
    }
    double* slot = name == "queue"     ? &t.queue
                   : name == "compile" ? &t.compile
                   : name == "execute" ? &t.execute
                   : name == "emit"    ? &t.emit
                   : name == "total"   ? &t.total
                                       : nullptr;
    if (slot != nullptr) {
      *slot = ms;
      ++seen;
    }
  }
  t.ok = seen == 5;
  return t;
}

// ---- HttpResponse ------------------------------------------------------

bool HttpResponse::take_line(std::string_view data, std::size_t& used,
                             std::string& out) {
  const std::size_t nl = data.find('\n', used);
  const std::size_t end = nl == std::string_view::npos ? data.size() : nl;
  line_.append(data.substr(used, end - used));
  used = nl == std::string_view::npos ? data.size() : nl + 1;
  if (line_.size() > kMaxLine) {
    state_ = State::kFailed;
    return false;
  }
  if (nl == std::string_view::npos) {
    return false;
  }
  if (!line_.empty() && line_.back() == '\r') {
    line_.pop_back();
  }
  out.swap(line_);
  line_.clear();
  return true;
}

void HttpResponse::header_line(const std::string& line, bool trailer) {
  const std::size_t colon = line.find(':');
  if (colon == std::string::npos) {
    state_ = State::kFailed;
    return;
  }
  const std::string name = lower(trim(std::string_view(line).substr(0, colon)));
  const std::string_view value = trim(std::string_view(line).substr(colon + 1));
  if (name == "server-timing") {
    server_timing_ = std::string(value);
  } else if (!trailer && name == "transfer-encoding") {
    chunked_ = lower(value) == "chunked";
    if (!chunked_) {
      state_ = State::kFailed;  // no other coding is expected
    }
  } else if (!trailer && name == "content-length") {
    remaining_ = std::strtoull(std::string(value).c_str(), nullptr, 10);
  }
}

std::size_t HttpResponse::feed(std::string_view data) {
  std::size_t used = 0;
  std::string line;
  while (used < data.size() && state_ != State::kDone &&
         state_ != State::kFailed) {
    switch (state_) {
      case State::kStatus:
        if (take_line(data, used, line)) {
          if (line.rfind("HTTP/1.", 0) != 0 || line.size() < 12) {
            state_ = State::kFailed;
            break;
          }
          status_ = std::atoi(line.c_str() + 9);
          state_ = State::kHeaders;
        }
        break;
      case State::kHeaders:
        if (take_line(data, used, line)) {
          if (!line.empty()) {
            header_line(line, false);
          } else if (chunked_) {
            state_ = State::kChunkSize;
          } else {
            state_ = remaining_ > 0 ? State::kLengthBody : State::kDone;
          }
        }
        break;
      case State::kChunkSize:
        if (take_line(data, used, line)) {
          const std::string size = line.substr(0, line.find(';'));
          char* end = nullptr;
          const unsigned long long n = std::strtoull(size.c_str(), &end, 16);
          if (size.empty() || *end != '\0') {
            state_ = State::kFailed;
            break;
          }
          remaining_ = n;
          state_ = n == 0 ? State::kTrailers : State::kChunkData;
        }
        break;
      case State::kChunkData:
      case State::kLengthBody: {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining_, data.size() - used));
        body_.append(data.substr(used, n));
        used += n;
        remaining_ -= n;
        if (remaining_ == 0) {
          state_ = state_ == State::kChunkData ? State::kChunkEnd
                                               : State::kDone;
        }
        break;
      }
      case State::kChunkEnd:
        if (take_line(data, used, line)) {
          state_ = line.empty() ? State::kChunkSize : State::kFailed;
        }
        break;
      case State::kTrailers:
        if (take_line(data, used, line)) {
          if (line.empty()) {
            state_ = State::kDone;
          } else {
            header_line(line, true);
          }
        }
        break;
      case State::kDone:
      case State::kFailed:
        break;
    }
  }
  return used;
}

// ---- Connection --------------------------------------------------------

Connection::Connection(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  // A wedged server must fail the run, not hang it past its deadline.
  timeval tv{};
  tv.tv_sec = 30;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd_);
    throw std::runtime_error("connect 127.0.0.1:" + std::to_string(port) +
                             ": " + std::strerror(err));
  }
}

Connection::~Connection() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void Connection::send_all(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

bool Connection::fill() {
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (1u << 20)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  char tmp[256 * 1024];
  while (true) {
    const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
    if (n > 0) {
      buf_.append(tmp, static_cast<std::size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
}

bool Connection::read_frame(FrameHead& head, std::string& payload,
                            bool append) {
  while (buf_.size() - pos_ < kHeaderBytes) {
    if (!fill()) {
      return false;
    }
  }
  head = decode_head(buf_.data() + pos_);
  while (buf_.size() - pos_ < kHeaderBytes + head.payload_bytes) {
    if (!fill()) {
      return false;
    }
  }
  if (!append) {
    payload.clear();
  }
  payload.append(buf_, pos_ + kHeaderBytes, head.payload_bytes);
  pos_ += kHeaderBytes + head.payload_bytes;
  return true;
}

bool Connection::read_http(HttpResponse& response) {
  while (true) {
    if (pos_ < buf_.size()) {
      pos_ += response.feed(std::string_view(buf_).substr(pos_));
    }
    if (response.done() || response.failed()) {
      return response.done();
    }
    if (!fill()) {
      return false;
    }
  }
}

}  // namespace perfbench
