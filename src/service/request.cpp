#include "service/request.hpp"

#include <charconv>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "service/digest.hpp"

namespace symphase {

namespace {

std::uint64_t parse_u64(std::string_view key, std::string_view value) {
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  SYMPHASE_CHECK_MSG(ec == std::errc() && ptr == value.data() + value.size(),
                     "invalid integer for " << key << ": '" << value << "'");
  return out;
}

std::vector<std::size_t> parse_rows(std::string_view value) {
  std::vector<std::size_t> rows;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    const std::string_view item =
        value.substr(start, comma == std::string_view::npos ? std::string_view::npos
                                                            : comma - start);
    SYMPHASE_CHECK_MSG(!item.empty(), "empty entry in rows list");
    rows.push_back(parse_u64("rows", item));
    SYMPHASE_CHECK_MSG(rows.size() < 2 || rows[rows.size() - 2] < rows.back(),
                       "rows list must be sorted and duplicate-free");
    if (comma == std::string_view::npos) {
      break;
    }
    start = comma + 1;
  }
  return rows;
}

}  // namespace

SampleRequest SampleRequest::sample(std::string circuit, std::size_t shots) {
  SampleRequest request;
  request.verb = RequestVerb::kSample;
  request.circuit_text = std::move(circuit);
  request.task = SampleTask::measurements(shots);
  return request;
}

SampleRequest SampleRequest::detect(std::string circuit, std::size_t shots) {
  SampleRequest request;
  request.verb = RequestVerb::kDetect;
  request.circuit_text = std::move(circuit);
  request.task = SampleTask::detection_events(shots);
  request.format = SampleFormat::kDets;
  return request;
}

SampleRequest parse_request_payload(std::string_view payload) {
  const std::size_t eol = payload.find('\n');
  const std::string_view directive =
      payload.substr(0, eol == std::string_view::npos ? payload.size() : eol);
  std::string_view rest =
      eol == std::string_view::npos ? std::string_view{} : payload.substr(eol + 1);

  std::istringstream line{std::string(directive)};
  std::string verb;
  line >> verb;
  SampleRequest request;
  if (verb == "sample") {
    request.verb = RequestVerb::kSample;
    request.task.target = SampleTarget::kMeasurements;
  } else if (verb == "detect") {
    request.verb = RequestVerb::kDetect;
    request.task.target = SampleTarget::kDetectionEvents;
    request.format = SampleFormat::kDets;
  } else if (verb == "register") {
    request.verb = RequestVerb::kRegister;
  } else if (verb == "stats") {
    request.verb = RequestVerb::kStats;
  } else if (verb == "cancel") {
    request.verb = RequestVerb::kCancel;
  } else if (verb == "health") {
    request.verb = RequestVerb::kHealth;
  } else {
    SYMPHASE_CHECK_MSG(
        false, "unknown request verb '"
                   << verb << "' (sample|detect|register|stats|cancel|health)");
  }
  request.task.shots = 1024;

  std::string option;
  while (line >> option) {
    const std::size_t eq = option.find('=');
    SYMPHASE_CHECK_MSG(eq != std::string::npos,
                       "malformed option '" << option << "' (expected key=value)");
    const std::string key = option.substr(0, eq);
    const std::string value = option.substr(eq + 1);
    if (request.verb == RequestVerb::kCancel) {
      SYMPHASE_CHECK_MSG(key == "id", "unknown cancel option '" << key << "'");
      request.cancel_id = parse_u64(key, value);
      continue;
    }
    if (request.verb == RequestVerb::kStats ||
        request.verb == RequestVerb::kHealth) {
      SYMPHASE_CHECK_MSG(key == "json",
                         "option '" << key << "' not valid for '" << verb
                                    << "' requests");
      SYMPHASE_CHECK_MSG(value == "0" || value == "1",
                         "json= takes 0 or 1, got '" << value << "'");
      request.stats_json = value == "1";
      continue;
    }
    const bool sampling = request.verb == RequestVerb::kSample ||
                          request.verb == RequestVerb::kDetect;
    SYMPHASE_CHECK_MSG(sampling, "option '" << key << "' not valid for '"
                                            << verb << "' requests");
    if (key == "shots") {
      request.task.shots = parse_u64(key, value);
    } else if (key == "seed") {
      request.task.seed = parse_u64(key, value);
    } else if (key == "threads") {
      request.task.num_threads = parse_u64(key, value);
    } else if (key == "format") {
      request.format = sample_format_from_name(value);
    } else if (key == "backend") {
      request.task.backend = backend_from_name(value);
    } else if (key == "rows") {
      request.task.bit_selection = parse_rows(value);
    } else if (key == "priority") {
      request.priority = priority_from_name(value);
    } else if (key == "deadline_ms") {
      request.deadline_ms = parse_u64(key, value);
    } else if (key == "timing") {
      SYMPHASE_CHECK_MSG(value == "0" || value == "1",
                         "timing= takes 0 or 1, got '" << value << "'");
      request.want_timing = value == "1";
    } else if (key == "digest") {
      SYMPHASE_CHECK_MSG(is_digest_string(value),
                         "malformed digest '" << value
                                              << "' (32 lowercase hex chars)");
      request.digest = value;
    } else {
      SYMPHASE_CHECK_MSG(false, "unknown request option '" << key << "'");
    }
  }

  if (request.verb == RequestVerb::kSample ||
      request.verb == RequestVerb::kDetect ||
      request.verb == RequestVerb::kRegister) {
    // Trailing text is the circuit. Strip nothing: the parser tolerates
    // blank lines and comments, and the digest canonicalizes them away.
    request.circuit_text = std::string(rest);
    const bool has_text =
        request.circuit_text.find_first_not_of(" \t\r\n") != std::string::npos;
    if (request.verb == RequestVerb::kRegister) {
      SYMPHASE_CHECK_MSG(has_text, "register request carries no circuit text");
      SYMPHASE_CHECK_MSG(request.digest.empty(),
                         "register request cannot use digest=");
    } else {
      SYMPHASE_CHECK_MSG(has_text || !request.digest.empty(),
                         "request carries neither circuit text nor digest=");
      SYMPHASE_CHECK_MSG(!(has_text && !request.digest.empty()),
                         "request carries both circuit text and digest=");
    }
    if (!has_text) {
      request.circuit_text.clear();
    }
  } else {
    SYMPHASE_CHECK_MSG(
        rest.find_first_not_of(" \t\r\n") == std::string_view::npos,
        verb << " request carries unexpected trailing text");
    if (request.verb == RequestVerb::kCancel) {
      SYMPHASE_CHECK_MSG(request.cancel_id != 0,
                         "cancel request needs id=<nonzero request id>");
    }
  }
  if (request.verb == RequestVerb::kSample) {
    SYMPHASE_CHECK_MSG(request.format != SampleFormat::kDets,
                       "dets format is for detect requests");
  }
  return request;
}

std::string encode_request_payload(const SampleRequest& request) {
  std::ostringstream oss;
  switch (request.verb) {
    case RequestVerb::kSample:
      oss << "sample";
      break;
    case RequestVerb::kDetect:
      oss << "detect";
      break;
    case RequestVerb::kRegister:
      oss << "register";
      break;
    case RequestVerb::kStats:
      oss << "stats";
      break;
    case RequestVerb::kCancel:
      oss << "cancel id=" << request.cancel_id;
      break;
    case RequestVerb::kHealth:
      oss << "health";
      break;
  }
  if ((request.verb == RequestVerb::kStats ||
       request.verb == RequestVerb::kHealth) &&
      request.stats_json) {
    oss << " json=1";
  }
  if (request.verb == RequestVerb::kSample ||
      request.verb == RequestVerb::kDetect) {
    oss << " shots=" << request.task.shots << " seed=" << request.task.seed
        << " format=" << sample_format_name(request.format)
        << " backend=" << backend_name(request.task.backend);
    if (request.task.num_threads != 0) {
      oss << " threads=" << request.task.num_threads;
    }
    if (request.priority != RequestPriority::kNormal) {
      oss << " priority=" << priority_name(request.priority);
    }
    if (request.deadline_ms != 0) {
      oss << " deadline_ms=" << request.deadline_ms;
    }
    if (request.want_timing) {
      oss << " timing=1";
    }
    if (!request.task.bit_selection.empty()) {
      oss << " rows=";
      for (std::size_t i = 0; i < request.task.bit_selection.size(); ++i) {
        oss << (i ? "," : "") << request.task.bit_selection[i];
      }
    }
    if (!request.digest.empty()) {
      oss << " digest=" << request.digest;
    }
  }
  oss << '\n';
  if (!request.circuit_text.empty()) {
    oss << request.circuit_text;
    if (request.circuit_text.back() != '\n') {
      oss << '\n';
    }
  }
  return oss.str();
}

}  // namespace symphase
