#pragma once

/// \file request.hpp
/// The text payload carried by request frames, and its codec.
///
/// A request message's payload is one directive line followed (for
/// circuit-carrying verbs) by the circuit text:
///
///   sample shots=100000 seed=7 format=b8 backend=symphase threads=4
///   H 0
///   CNOT 0 1
///   M 0 1
///
/// Verbs:
///   sample   stream measurement shots back           (circuit or digest=)
///   detect   stream detection events back            (circuit or digest=)
///   register parse + register the circuit, reply "digest=<hex>\n"
///   stats    reply one line of service counters (a session that may
///            block, as on stdio, drains first so the counters reflect
///            every previously submitted request; the socket server
///            snapshots — see frame_session.hpp)
///   cancel   id=N: cancel the in-flight/queued request N on this
///            transport session; reply "cancelled\n", or an error frame
///            when N is unknown or already finished
///   health   reply one line of readiness state
///            ("state=accepting|draining queue_depth=..."), never
///            blocking on queued work — the probe verb for load
///            balancers and drain tests
///
/// Options (all optional): shots=N seed=N threads=N
///   format=01|hex|b8|ptb64|dets   backend=symphase|frames
///   rows=i,j,k   sorted record-row subset (SampleTask::bit_selection)
///   digest=<32 hex>   reference a previously registered circuit
///     instead of carrying its text inline.
///   priority=high|normal|low   scheduler class (default normal)
///   deadline_ms=N   relative deadline budget: if the request has not
///     *started* sampling N ms after the service accepted it, it is
///     rejected with an error frame instead of executed (0 = none).
///   json=1   (stats/health only) reply with the JSON rendering
///     instead of the key=value line — `symphase stats --json`.
///   timing=1   (sample/detect only) attach a stage-timing summary
///     (Server-Timing syntax) to the final frame, marked with the
///     kFrameTiming flag — see docs/observability.md. Off by default
///     so the byte stream is unchanged for peers that never ask.
///
/// The response to sample/detect is the chosen format's byte stream,
/// chunked across data frames — reassembled, it is bit-identical to
/// running the same SampleTask on a SimulatorSession directly
/// (tests/service_differential_test.cpp pins this per circuit, backend,
/// format, and thread count).

#include <cstdint>
#include <string>
#include <string_view>

#include "api/sample_task.hpp"
#include "sampler/sample_writer.hpp"
#include "service/scheduler.hpp"

namespace symphase {

enum class RequestVerb { kSample, kDetect, kRegister, kStats, kCancel, kHealth };

/// One parsed request payload. `task.shots` defaults to 1024 like the
/// CLI; `format` defaults to 01 for sample and dets for detect.
struct SampleRequest {
  RequestVerb verb = RequestVerb::kSample;
  /// Inline circuit text (sample/detect/register). Empty when `digest`
  /// names a registered circuit instead.
  std::string circuit_text;
  /// Handle to a registered circuit (sample/detect only).
  std::string digest;
  SampleTask task;
  SampleFormat format = SampleFormat::k01;
  /// Scheduler class (sample/detect only).
  RequestPriority priority = RequestPriority::kNormal;
  /// Relative deadline budget in milliseconds from service acceptance;
  /// 0 = no deadline. See the verb table above for the semantics.
  std::uint64_t deadline_ms = 0;
  /// kCancel only: the transport-session request id to cancel.
  std::uint64_t cancel_id = 0;
  /// kStats/kHealth only: reply with the JSON rendering (to_json())
  /// instead of the key=value line. Wire option `json=1`.
  bool stats_json = false;
  /// kSample/kDetect only: attach the stage-timing summary to the
  /// final frame (kFrameTiming). Wire option `timing=1`.
  bool want_timing = false;

  static SampleRequest sample(std::string circuit, std::size_t shots);
  static SampleRequest detect(std::string circuit, std::size_t shots);
};

/// Parses a request payload. Throws std::invalid_argument with a
/// descriptive message on any malformed directive (unknown verb/option,
/// bad number, rows not sorted, digest malformed, circuit both inline
/// and by digest, ...). Circuit text itself is *not* parsed here — the
/// service does that (and reports parse errors through the error frame).
SampleRequest parse_request_payload(std::string_view payload);

/// Renders `request` into the payload text parse_request_payload
/// accepts; round-trips every field.
std::string encode_request_payload(const SampleRequest& request);

}  // namespace symphase
