#!/usr/bin/env python3
"""Layer-attributed benchmark of the symphase repository.

    python3 perfbench/run.py --workload qec_d9_detect --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds the library, the `symphase` CLI
and the `perfbench` binary from the checkout's sources (native flags)
into $CARGO_TARGET_DIR (default .bench_build), records the host
fingerprint, refuses to report from a scalar WideWord build, then runs
one workload. The last line of stdout is the JSON result; every metric
is also printed by name with its unit above it. See perfbench/README.md.

    python3 perfbench/run.py --selftest    # the benchmark's own self-tests
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("qec_d9_detect", "cli_b8", "served_mixed", "fig3_layered")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    """Configures (once) and builds; returns the perfbench binary's path."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def source_digest():
    """SHA-256 over the sources the build reads; identifies checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(binary):
    backend = subprocess.run([binary, "--print-backend"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "wideword_backend": backend,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def run_perfbench(cmd):
    """Runs perfbench in its own process group so that a timeout also
    stops the CLI and server children it started."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out.decode()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    bdir = build_dir()
    binary = build(bdir)
    if args.selftest:
        return subprocess.run([binary, "selftest"]).returncode

    host = fingerprint(binary)
    if (host["wideword_backend"] == "scalar"
            and os.environ.get("SYMPHASE_ALLOW_SCALAR_BENCH") != "1"):
        log("the native build landed on the scalar WideWord backend; its "
            "numbers are not comparable, so nothing is reported "
            "(set SYMPHASE_ALLOW_SCALAR_BENCH=1 to record them anyway)")
        return 3

    out_dir = os.path.join(bdir, "runs")
    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--data-dir", os.path.join(ROOT, "data"),
           "--cli", os.path.join(bdir, "symphase"), "--out-dir", out_dir]
    started = time.time()
    code, out = run_perfbench(cmd)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError, IndexError):
        log("perfbench exited %d without a result" % code)
        return code or 1
    if code != 0:
        log("perfbench exited %d" % code)
        return code

    record = {"host": host, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "wall_s": round(time.time() - started, 3), "result": result}
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(bdir, "results", name), "w") as f:
        json.dump(record, f, indent=1)

    print("host: " + json.dumps(host))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(str(e))
        sys.exit(1)
