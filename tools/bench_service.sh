#!/usr/bin/env bash
# Serving-path benchmark: requests/sec and p50/p99 latency over a
# loopback TCP connection, for a small-shot mix (queue/framing overhead
# dominated) and a large-shot mix (sampling throughput dominated).
#
# Usage: tools/bench_service.sh [--http|--trace] [build-dir]
#
# Starts `symphase serve --listen 127.0.0.1:0`, drives it with
# `symphase sample --connect ... --repeat N` (one connection per mix,
# per-request wall times measured client-side around the full
# submit->last-frame round trip), and writes
# bench/results/BENCH_<stamp>-service.json. Honors SYMPHASE_BENCH_STAMP
# and the scalar-backend guard convention of run_benchmarks.sh
# (SYMPHASE_ALLOW_SCALAR_BENCH=1 to record scalar numbers anyway).
#
# With --http, the server also opens the HTTP gateway and every mix
# runs twice — frame protocol and `POST /v1/sample` over one keep-alive
# connection (python3 stdlib http.client) — and the output becomes
# bench/results/BENCH_<stamp>-gateway.json with per-mix overhead
# ratios. Same server process for both transports, so the deltas are
# pure transport cost.
#
# With --trace, the benchmark measures the cost of request-lifecycle
# tracing: the small-shot mix runs against a server with tracing off
# (the default — instrumentation compiled in but gated behind one
# relaxed atomic load) and again with `--trace --trace-out`, and the
# output becomes bench/results/BENCH_<stamp>-trace.json with the
# enabled-overhead percentage plus per-stage p50/p95/p99 parsed from
# the captured Perfetto trace. The tracing-off numbers are directly
# comparable to the small mix in BENCH_<stamp>-service.json, which is
# how the "disabled tracing costs <1%" claim is checked across PRs.

set -euo pipefail

http_mode=0
trace_mode=0
if [[ "${1:-}" == "--http" ]]; then
  http_mode=1
  shift
elif [[ "${1:-}" == "--trace" ]]; then
  trace_mode=1
  shift
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-bench}"
out_dir="$repo_root/bench/results"
stamp="${SYMPHASE_BENCH_STAMP:-$(date +%Y-%m-%d)}"
if [[ "$http_mode" == 1 ]]; then
  out_file="$out_dir/BENCH_${stamp}-gateway.json"
elif [[ "$trace_mode" == 1 ]]; then
  out_file="$out_dir/BENCH_${stamp}-trace.json"
else
  out_file="$out_dir/BENCH_${stamp}-service.json"
fi
circuit="$repo_root/data/surface_d3_r3_noisy.stim"

small_shots=1000
small_requests=200
large_shots=2000000
large_requests=5
workers=2

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=Release -DSYMPHASE_NATIVE=ON >/dev/null
cmake --build "$build_dir" -j --target symphase_cli bench_noise >/dev/null

backend="$("$build_dir/bench_noise" --print-backend)"
if [[ "$backend" == "scalar" &&
      "${SYMPHASE_ALLOW_SCALAR_BENCH:-0}" != "1" ]]; then
  echo "error: native build landed on the scalar WideWord backend;" >&2
  echo "       numbers would not be comparable (set" >&2
  echo "       SYMPHASE_ALLOW_SCALAR_BENCH=1 to record anyway)." >&2
  exit 1
fi

mkdir -p "$out_dir"
tmp_dir="$(mktemp -d)"
server_pid=""
cleanup() {
  if [[ -n "$server_pid" ]]; then
    kill -TERM "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$tmp_dir"
}
trap cleanup EXIT

if [[ "$trace_mode" == 1 ]]; then
  trace_requests=1000  # more samples than the generic small mix: the
                       # effect being measured is a fraction of a
                       # 0.2 ms round trip, so p50 needs the depth
  run_trace_mix() {  # name server_binary [extra serve args...]
    local name=$1 server_bin=$2
    shift 2
    "$server_bin" serve --listen 127.0.0.1:0 --workers "$workers" \
      "$@" 2>"$tmp_dir/$name-serve.log" &
    server_pid=$!
    for _ in $(seq 100); do
      grep -q 'listening on' "$tmp_dir/$name-serve.log" 2>/dev/null && break
      sleep 0.1
    done
    local port
    port="$(grep -oP 'listening on [0-9.]+:\K[0-9]+' \
            "$tmp_dir/$name-serve.log")"
    [[ -n "$port" ]] || {
      echo "error: server never announced a port" >&2; exit 1; }
    echo "mix '$name': $trace_requests requests x $small_shots shots ..." >&2
    "$build_dir/symphase" sample "$circuit" --shots "$small_shots" \
      --format b8 --connect 127.0.0.1:"$port" --repeat "$trace_requests" \
      > "$tmp_dir/$name.lat"
    # Graceful drain: --trace-out is written after run() returns.
    kill -TERM "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
    server_pid=""
  }

  # SYMPHASE_TRACE_SEED_BIN, when set, names a `symphase` binary built
  # from a commit *without* the trace instrumentation; its mix becomes
  # the baseline for disabled_vs_seed_overhead_pct — the direct check
  # that compiled-in-but-disabled tracing is free. Same invocation,
  # back to back, so the comparison dodges cross-run container drift.
  if [[ -n "${SYMPHASE_TRACE_SEED_BIN:-}" ]]; then
    run_trace_mix seed "$SYMPHASE_TRACE_SEED_BIN"
  fi
  run_trace_mix off "$build_dir/symphase"
  run_trace_mix on "$build_dir/symphase" \
    --trace --trace-out "$tmp_dir/trace.json"
  [[ -s "$tmp_dir/trace.json" ]] || {
    echo "error: --trace-out produced no trace" >&2; exit 1; }

  python3 - "$tmp_dir" "$out_file" "$stamp" "$backend" \
    "$small_shots" "$workers" <<'EOF'
import json
import re
import sys

tmp_dir, out_file, stamp, backend, shots, workers = sys.argv[1:7]

def load(name):
    ms = [float(m.group(1))
          for line in open(f"{tmp_dir}/{name}.lat")
          if (m := re.match(r"req_ms=([0-9.]+)", line))]
    ms.sort()
    q = lambda p: ms[min(len(ms) - 1, int(p * len(ms)))]
    total_s = sum(ms) / 1000.0
    return {
        "shots_per_request": int(shots),
        "requests": len(ms),
        "requests_per_sec": len(ms) / total_s if total_s else None,
        "p50_ms": q(0.50),
        "p90_ms": q(0.90),
        "p99_ms": q(0.99),
        "max_ms": ms[-1],
    }

off = load("off")
on = load("on")
import os
seed = load("seed") if os.path.exists(f"{tmp_dir}/seed.lat") else None

# Per-stage latency breakdown from the Perfetto trace the "on" server
# dumped at shutdown. Chrome trace-event durations are microseconds.
trace = json.load(open(f"{tmp_dir}/trace.json"))
stage_us = {}
for event in trace["traceEvents"]:
    if event.get("ph") == "X":
        stage_us.setdefault(event["name"], []).append(float(event["dur"]))
stages = {}
for name in ("queue", "compile", "execute", "emit", "fill"):
    durs = sorted(stage_us.get(name, []))
    if not durs:
        continue
    q = lambda p: durs[min(len(durs) - 1, int(p * len(durs)))] / 1000.0
    stages[name] = {
        "spans": len(durs),
        "p50_ms": round(q(0.50), 4),
        "p95_ms": round(q(0.95), 4),
        "p99_ms": round(q(0.99), 4),
    }

result = {
    "date": stamp,
    "bench": "bench_service --trace",
    "transport": "tcp-loopback",
    "wideword_backend": backend,
    "server_workers": int(workers),
    "circuit": "surface_d3_r3_noisy.stim",
    "note": ("small mix against the same binary with tracing off "
             "(default; span recording gated on one relaxed atomic "
             "load) and on (--trace --trace-out). "
             "trace_enabled_overhead_pct compares enabled-vs-off p50; "
             "the off numbers are comparable to the small mix in "
             "BENCH_<stamp>-service.json, so disabled-instrumentation "
             "cost shows up as drift between those two files. stages "
             "are parsed from the captured Perfetto trace (span "
             "durations, microseconds in the file)"),
    "mixes": {"tracing_off": off, "tracing_on": on},
    "trace_enabled_overhead_pct": round(
        (on["p50_ms"] / off["p50_ms"] - 1.0) * 100.0, 2),
    **({"seed_mix": seed,
        "disabled_vs_seed_overhead_pct": round(
            (off["p50_ms"] / seed["p50_ms"] - 1.0) * 100.0, 2)}
       if seed else {}),
    "trace_events": len(trace["traceEvents"]),
    "trace_dropped_events": trace["otherData"]["dropped_events"],
    "stages": stages,
}
with open(out_file, "w") as f:
    json.dump(result, f, indent=1)
print(out_file)
if seed:
    print(f"seed p50 {seed['p50_ms']:.3f} ms -> disabled p50 "
          f"{off['p50_ms']:.3f} ms "
          f"({result['disabled_vs_seed_overhead_pct']:+.2f}%)")
print(f"tracing off p50 {off['p50_ms']:.3f} ms -> on p50 "
      f"{on['p50_ms']:.3f} ms "
      f"({result['trace_enabled_overhead_pct']:+.2f}%), "
      f"{result['trace_events']} events, "
      f"{result['trace_dropped_events']} dropped")
EOF
  exit 0
fi

serve_args=(--listen 127.0.0.1:0 --workers "$workers")
if [[ "$http_mode" == 1 ]]; then
  serve_args+=(--http 127.0.0.1:0 --http-port-file "$tmp_dir/http.port")
fi
"$build_dir/symphase" serve "${serve_args[@]}" 2>"$tmp_dir/serve.log" &
server_pid=$!
for _ in $(seq 100); do
  grep -q 'listening on' "$tmp_dir/serve.log" 2>/dev/null && break
  sleep 0.1
done
port="$(grep -oP 'listening on [0-9.]+:\K[0-9]+' "$tmp_dir/serve.log")"
[[ -n "$port" ]] || { echo "error: server never announced a port" >&2; exit 1; }
if [[ "$http_mode" == 1 ]]; then
  for _ in $(seq 100); do
    [[ -s "$tmp_dir/http.port" ]] && break
    sleep 0.1
  done
  http_port="$(cat "$tmp_dir/http.port")"
  [[ -n "$http_port" ]] || { echo "error: no HTTP port" >&2; exit 1; }
fi

run_mix() {  # name shots requests
  local name=$1 shots=$2 requests=$3
  echo "mix '$name': $requests requests x $shots shots ..." >&2
  "$build_dir/symphase" sample "$circuit" --shots "$shots" --format b8 \
    --connect 127.0.0.1:"$port" --repeat "$requests" \
    > "$tmp_dir/$name.lat"
}

run_http_mix() {  # name shots requests
  local name=$1 shots=$2 requests=$3
  echo "mix '$name' (http): $requests requests x $shots shots ..." >&2
  python3 - "$http_port" "$circuit" "$shots" "$requests" \
    > "$tmp_dir/$name-http.lat" <<'EOF'
import http.client
import json
import sys
import time

port, circuit_path, shots, requests = (
    int(sys.argv[1]), sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
circuit = open(circuit_path).read()
conn = http.client.HTTPConnection("127.0.0.1", port)
for i in range(requests):
    body = json.dumps(
        {"circuit": circuit, "shots": shots, "seed": i + 1, "format": "b8"})
    start = time.perf_counter()
    conn.request("POST", "/v1/sample", body,
                 {"Content-Type": "application/json"})
    response = conn.getresponse()
    payload = response.read()  # drains the chunked stream
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    assert response.status == 200, (response.status, payload[:200])
    # b8 is ceil(bits/8) bytes per shot; just pin shape, not width.
    assert payload and len(payload) % shots == 0, (len(payload), shots)
    print(f"req_ms={elapsed_ms:.3f}")
conn.close()
EOF
}

run_mix small "$small_shots" "$small_requests"
run_mix large "$large_shots" "$large_requests"
if [[ "$http_mode" == 1 ]]; then
  run_http_mix small "$small_shots" "$small_requests"
  run_http_mix large "$large_shots" "$large_requests"
fi

python3 - "$tmp_dir" "$out_file" "$stamp" "$backend" \
  "$small_shots" "$large_shots" "$workers" "$http_mode" <<'EOF'
import json
import re
import sys

(tmp_dir, out_file, stamp, backend, small_shots, large_shots, workers,
 http_mode) = sys.argv[1:9]

def load(name, shots):
    ms = [float(m.group(1))
          for line in open(f"{tmp_dir}/{name}.lat")
          if (m := re.match(r"req_ms=([0-9.]+)", line))]
    ms.sort()
    q = lambda p: ms[min(len(ms) - 1, int(p * len(ms)))]
    total_s = sum(ms) / 1000.0
    return {
        "shots_per_request": int(shots),
        "requests": len(ms),
        "requests_per_sec": len(ms) / total_s if total_s else None,
        "p50_ms": q(0.50),
        "p90_ms": q(0.90),
        "p99_ms": q(0.99),
        "max_ms": ms[-1],
    }

if http_mode == "1":
    mixes = {}
    for name, shots in (("small", small_shots), ("large", large_shots)):
        frame = load(name, shots)
        http = load(f"{name}-http", shots)
        mixes[name] = {
            "frame": frame,
            "http": http,
            "http_overhead_p50": round(http["p50_ms"] / frame["p50_ms"], 3),
            "http_overhead_ms_p50": round(
                http["p50_ms"] - frame["p50_ms"], 3),
        }
    result = {
        "date": stamp,
        "bench": "bench_service --http",
        "transport": "tcp-loopback (frame protocol vs HTTP/1.1 gateway)",
        "wideword_backend": backend,
        "server_workers": int(workers),
        "circuit": "surface_d3_r3_noisy.stim",
        "note": ("same server process, sequential requests on one "
                 "connection per transport per mix; http is POST "
                 "/v1/sample with inline circuit JSON, chunked b8 "
                 "response drained fully. Overhead = JSON translation + "
                 "HTTP framing; the large mix shows it amortizing to "
                 "noise against sampling time"),
        "mixes": mixes,
    }
else:
    result = {
        "date": stamp,
        "bench": "bench_service",
        "transport": "tcp-loopback",
        "wideword_backend": backend,
        "server_workers": int(workers),
        "circuit": "surface_d3_r3_noisy.stim",
        "note": ("client-measured full round trip (submit -> final frame) "
                 "over one connection per mix; sequential requests, so "
                 "requests_per_sec is single-stream serving throughput"),
        "mixes": {
            "small": load("small", small_shots),
            "large": load("large", large_shots),
        },
    }
with open(out_file, "w") as f:
    json.dump(result, f, indent=1)
print(out_file)
EOF
