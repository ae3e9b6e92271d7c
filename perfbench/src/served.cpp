#include "served.hpp"

#include <signal.h>
#include <sys/wait.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "api/session.hpp"
#include "circuit/parser.hpp"

namespace perfbench {

namespace {

constexpr double kStartTimeoutS = 30.0;
/// Pacing of each small connection: at most one request per 5 ms, so
/// the three small connections offer 600 req/s. Saturating them instead
/// ties the result to how much CPU the host's other tenants leave: in
/// that form requests_per_s drifted from 1,070 to 2,700 within single
/// runs and spread 0.30 across runs, and p99 0.48.
constexpr std::uint64_t kSmallIntervalNs = 5'000'000;

std::uint16_t wait_for_port(const std::string& path, ChildProcess& child,
                            Clock::time_point deadline) {
  while (Clock::now() < deadline) {
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (!text.empty() && text.back() == '\n') {
      const unsigned long port = std::strtoul(text.c_str(), nullptr, 10);
      if (port == 0 || port > 65535) {
        throw std::runtime_error("bad port file " + path);
      }
      return static_cast<std::uint16_t>(port);
    }
    int status = 0;
    if (::waitpid(child.pid(), &status, WNOHANG) == child.pid()) {
      throw std::runtime_error("server exited during start-up");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  throw std::runtime_error("server did not write " + path);
}

/// Reads frames for `id` until the last one. Data payloads are appended
/// to `data`; a timing frame's line goes to `timing`. Returns false on a
/// transport failure, an error frame, or a foreign request id, with the
/// reason in `error`.
/// With `frames`, each data frame arriving before `window_end_ns` is
/// recorded as (seconds since `window_start_ns`, payload bytes).
bool read_response(
    Connection& conn, std::uint64_t id, std::string& data, std::string& timing,
    std::string& error,
    std::vector<std::pair<double, std::uint64_t>>* frames = nullptr,
    std::uint64_t window_start_ns = 0, std::uint64_t window_end_ns = 0) {
  FrameHead head;
  while (true) {
    const std::size_t before = data.size();
    if (!conn.read_frame(head, data, true)) {
      error = "connection closed mid-response";
      return false;
    }
    if (head.request_id != id) {
      error = "frame for request " + std::to_string(head.request_id) +
              " while awaiting " + std::to_string(id);
      return false;
    }
    if ((head.flags & (kFlagError | kFlagTiming)) != 0) {
      const std::string tail = data.substr(before);
      data.resize(before);
      if ((head.flags & kFlagError) != 0) {
        error = "error frame: " + tail;
        return false;
      }
      timing = tail;
    } else if (frames != nullptr) {
      const std::uint64_t t = now_ns();
      if (t <= window_end_ns) {
        frames->emplace_back(static_cast<double>(t - window_start_ns) / 1e9,
                             head.payload_bytes);
      }
    }
    if ((head.flags & kFlagLast) != 0) {
      return true;
    }
  }
}

}  // namespace

double json_number(const std::string& json, const std::string& key,
                   bool& found) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  found = at != std::string::npos;
  return found ? std::strtod(json.c_str() + at + needle.size(), nullptr) : 0.0;
}

ExpectedResponses expected_responses(const ServedClass& cls,
                                     std::uint64_t seed, std::size_t count) {
  ExpectedResponses out;
  const symphase::SimulatorSession session(
      symphase::parse_circuit(cls.shape.text));
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t s = mix_seed(seed, i);
    symphase::SampleTask task;
    task.target = cls.shape.target;
    task.shots = cls.shots;
    task.seed = s;
    std::ostringstream oss;
    symphase::WriterSink sink(oss, symphase::SampleFormat::kB8);
    session.run(task, sink);
    out.seeds.push_back(s);
    out.bytes.push_back(oss.str());
  }
  return out;
}

bool response_matches(const ExpectedResponses& expected, std::size_t i,
                      const std::string& got) {
  const std::string& want = expected.bytes[i];
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), got.size()) == 0;
}

ServedSession::ServedSession(const Options& opt, const ServedConfig& config,
                             const ExpectedResponses& small,
                             const ExpectedResponses& bulk, int index)
    : config_(config),
      small_expected_(small),
      bulk_expected_(bulk) {
  const std::string dir = opt.out_dir + "/served-" + std::to_string(index);
  std::filesystem::create_directories(dir);
  const std::string port_file = dir + "/port";
  const std::string http_port_file = dir + "/http_port";
  std::filesystem::remove(port_file);
  std::filesystem::remove(http_port_file);

  const Clock::time_point t0 = Clock::now();
  child_ = std::make_unique<ChildProcess>(
      std::vector<std::string>{opt.cli_path, "serve", "--listen",
                               "127.0.0.1:0", "--port-file", port_file,
                               "--http", "127.0.0.1:0", "--http-port-file",
                               http_port_file},
      false, dir + "/server.log");
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(kStartTimeoutS));
  frame_port_ = wait_for_port(port_file, *child_, deadline);
  http_port_ = wait_for_port(http_port_file, *child_, deadline);

  Connection conn(frame_port_);
  small_digest_ = register_circuit(conn, config_.small.shape.text);
  bulk_digest_ = register_circuit(conn, config_.bulk.shape.text);
  setup_ok_ = true;
  for (const bool bulk_class : {false, true}) {
    const ServedClass& cls = bulk_class ? config_.bulk : config_.small;
    const ExpectedResponses& want = bulk_class ? bulk_expected_
                                               : small_expected_;
    const std::uint64_t id = next_id_++;
    conn.send_all(encode_frame(
        {id, 0, 0, kFlagLast},
        request_line(cls, bulk_class ? bulk_digest_ : small_digest_,
                     want.seeds[0], false)));
    std::string data, timing, error;
    setup_ok_ = setup_ok_ && read_response(conn, id, data, timing, error) &&
                response_matches(want, 0, data);
  }
  setup_s_ = seconds_since(t0);
}

ServedSession::~ServedSession() = default;

std::string ServedSession::request_line(const ServedClass& cls,
                                        const std::string& digest,
                                        std::uint64_t seed,
                                        bool timing) const {
  std::string line =
      cls.shape.target == symphase::SampleTarget::kDetectionEvents ? "detect"
                                                                   : "sample";
  line += " shots=" + std::to_string(cls.shots) +
          " seed=" + std::to_string(seed) + " format=b8";
  if (cls.threads != 0) {
    line += " threads=" + std::to_string(cls.threads);
  }
  if (timing) {
    line += " timing=1";
  }
  return line + " digest=" + digest + "\n";
}

std::string ServedSession::register_circuit(Connection& conn,
                                            const std::string& text) {
  const std::uint64_t id = next_id_++;
  conn.send_all(encode_frame({id, 0, 0, kFlagLast}, "register\n" + text));
  std::string data, timing, error;
  if (!read_response(conn, id, data, timing, error) ||
      data.rfind("digest=", 0) != 0) {
    throw std::runtime_error("register failed: " + error + data);
  }
  std::string digest = data.substr(7);
  while (!digest.empty() && (digest.back() == '\n' || digest.back() == '\r')) {
    digest.pop_back();
  }
  return digest;
}

ServedWindow ServedSession::run_window(double seconds, bool timing,
                                       Tracer* tracer) {
  ServedWindow result;
  result.seconds = seconds;
  std::mutex result_mutex;
  const std::uint64_t start_ns = now_ns();
  const std::uint64_t end_ns =
      start_ns + static_cast<std::uint64_t>(seconds * 1e9);

  const auto fail = [&](const std::string& why) {
    const std::lock_guard<std::mutex> lock(result_mutex);
    ++result.attempted;
    ++result.failed;
    if (result.first_failure.empty()) {
      result.first_failure = why;
    }
  };
  const auto small_done = [&](std::uint64_t t0, std::uint64_t t1,
                              const std::string& timing_line, bool http) {
    const std::lock_guard<std::mutex> lock(result_mutex);
    ++result.attempted;
    if (t1 > end_ns) {
      return;
    }
    const double ms = static_cast<double>(t1 - t0) / 1e6;
    result.small_ms.push_back(ms);
    result.small_end_s.push_back(static_cast<double>(t1 - start_ns) / 1e9);
    ++result.small_completed;
    if (timing) {
      const StageTimes st = parse_server_timing(timing_line);
      result.small_stages.push_back(st);
      (http ? result.http_outside_ms : result.frame_outside_ms)
          .push_back(ms - st.total);
    }
  };

  // Small clients send their next request one pacing interval after the
  // previous send, or as soon as its response is in if that is later.
  const auto pace = [](std::uint64_t sent_ns) {
    const std::uint64_t due = sent_ns + kSmallIntervalNs;
    const std::uint64_t now = now_ns();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
  };
  // Closed-loop small client over the frame protocol.
  const auto frame_small = [&](std::size_t lane) {
    Connection conn(frame_port_);
    const std::size_t pool = small_expected_.seeds.size();
    for (std::size_t i = 0; now_ns() < end_ns; ++i) {
      const std::size_t k = (lane + 3 * i) % pool;
      const std::uint64_t id = next_id_++;
      const std::uint64_t t0 = now_ns();
      conn.send_all(encode_frame(
          {id, 0, 0, kFlagLast},
          request_line(config_.small, small_digest_, small_expected_.seeds[k],
                       timing)));
      std::string data, timing_line, error;
      const bool transport_ok =
          read_response(conn, id, data, timing_line, error);
      const std::uint64_t t1 = now_ns();
      bool ok = transport_ok && response_matches(small_expected_, k, data);
      if (ok && timing && !parse_server_timing(timing_line).ok) {
        ok = false;
        error = "bad timing frame '" + timing_line + "'";
      }
      if (tracer != nullptr) {
        tracer->record("request", t0, t1, 0, id);
      }
      if (!ok) {
        fail(error.empty() ? "frame small response mismatch" : error);
        if (!transport_ok) {
          return;
        }
        continue;
      }
      small_done(t0, t1, timing_line, false);
      pace(t0);
    }
  };

  // Closed-loop small client over HTTP (keep-alive, chunked responses
  // with a Server-Timing trailer).
  const auto http_small = [&](std::size_t lane) {
    auto conn = std::make_unique<Connection>(http_port_);
    const std::size_t pool = small_expected_.seeds.size();
    const bool detect = config_.small.shape.target ==
                        symphase::SampleTarget::kDetectionEvents;
    for (std::size_t i = 0; now_ns() < end_ns; ++i) {
      const std::size_t k = (lane + 3 * i) % pool;
      std::string body = "{\"digest\":\"" + small_digest_ +
                         "\",\"shots\":" + std::to_string(config_.small.shots) +
                         ",\"seed\":" +
                         std::to_string(small_expected_.seeds[k]) +
                         ",\"format\":\"b8\"";
      if (config_.small.threads != 0) {
        body += ",\"threads\":" + std::to_string(config_.small.threads);
      }
      body += "}";
      const std::string request =
          std::string("POST ") + (detect ? "/v1/detect" : "/v1/sample") +
          " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
          "Content-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body;
      const std::uint64_t t0 = now_ns();
      conn->send_all(request);
      HttpResponse response;
      const bool complete = conn->read_http(response);
      const std::uint64_t t1 = now_ns();
      if (tracer != nullptr) {
        tracer->record("request", t0, t1, 0, 0);
      }
      const bool ok = complete && response.status() == 200 &&
                      response.chunked() &&
                      response_matches(small_expected_, k, response.body()) &&
                      (!timing ||
                       parse_server_timing(response.server_timing()).ok);
      if (!ok) {
        fail("http small response: status " +
             std::to_string(response.status()) +
             (complete ? "" : ", truncated or malformed"));
        conn = std::make_unique<Connection>(http_port_);
        continue;
      }
      small_done(t0, t1, response.server_timing(), true);
      pace(t0);
    }
  };

  // Closed-loop bulk client over the frame protocol.
  const auto frame_bulk = [&] {
    Connection conn(frame_port_);
    const std::size_t pool = bulk_expected_.seeds.size();
    std::string data;
    for (std::size_t i = 0; now_ns() < end_ns; ++i) {
      const std::size_t k = i % pool;
      const std::uint64_t id = next_id_++;
      const std::uint64_t t0 = now_ns();
      conn.send_all(encode_frame(
          {id, 0, 0, kFlagLast},
          request_line(config_.bulk, bulk_digest_, bulk_expected_.seeds[k],
                       timing)));
      data.clear();
      std::string timing_line, error;
      std::vector<std::pair<double, std::uint64_t>> frames;
      const bool transport_ok = read_response(conn, id, data, timing_line,
                                              error, &frames, start_ns, end_ns);
      const std::uint64_t t1 = now_ns();
      if (tracer != nullptr) {
        tracer->record("request", t0, t1, 0, id);
      }
      const bool ok =
          transport_ok && response_matches(bulk_expected_, k, data) &&
          (!timing || parse_server_timing(timing_line).ok);
      if (!ok) {
        fail(error.empty() ? "bulk response mismatch" : error);
        if (!transport_ok) {
          return;
        }
        continue;
      }
      const std::lock_guard<std::mutex> lock(result_mutex);
      ++result.attempted;
      result.bulk_frames.insert(result.bulk_frames.end(), frames.begin(),
                                frames.end());
      if (timing) {
        result.bulk_stages.push_back(parse_server_timing(timing_line));
      }
    }
  };

  const auto guarded = [&](auto&& body) {
    try {
      body();
    } catch (const std::exception& e) {
      fail(e.what());
    }
  };
  std::vector<std::thread> clients;
  clients.emplace_back([&] { guarded([&] { frame_small(0); }); });
  clients.emplace_back([&] { guarded([&] { frame_small(1); }); });
  clients.emplace_back([&] { guarded([&] { http_small(2); }); });
  clients.emplace_back([&] { guarded(frame_bulk); });
  for (std::thread& t : clients) {
    t.join();
  }
  return result;
}

ServerCounters ServedSession::counters() {
  ServerCounters c;
  Connection conn(frame_port_);
  const std::uint64_t id = next_id_++;
  conn.send_all(encode_frame({id, 0, 0, kFlagLast}, "stats json=1\n"));
  std::string data, timing, error;
  if (!read_response(conn, id, data, timing, error)) {
    return c;
  }
  bool a = false, b = false, d = false;
  c.completed = json_number(data, "completed", a);
  c.fused_requests = json_number(data, "fused_requests", b);
  c.compiles = json_number(data, "compiles", d);
  c.ok = a && b && d;
  return c;
}

bool ServedSession::stop() {
  child_->signal(SIGTERM);
  return ChildProcess::ok(child_->wait(20.0));
}

}  // namespace perfbench
