#!/usr/bin/env python3
"""End-to-end depflow benchmark: build, run one workload, print one result.

Usage (from the repository root):
  python3 perfbench/run.py --workload module-opt|bigfn-opt|sdg-slice \\
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test [--seed N]

Builds the library from src/ plus the benchmark program into
.bench_build/perfbench (Release, assertions on; the first run compiles,
later runs only check that the build is current), then runs depflow_e2e.
With --trace 1 depflow_e2e also writes a Chrome trace of one traced
iteration, which must pass tools/trace_analyze.py --check.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Build and progress output go to stderr.
Exits non-zero, without a result, when the sources are missing or the
build or the run fails. See perfbench/README.md for the metrics.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "depflow_e2e")
TRACE_TOOL = os.path.join(ROOT, "tools", "trace_analyze.py")

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout):
    """Runs cmd with stdout captured and stderr passed through."""
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("depflow sources not found under " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        sys.stderr.write(configure.stdout)
        if configure.returncode != 0:
            fail("cmake configure failed")
    result = run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                 BUILD_TIMEOUT_S)
    sys.stderr.write(result.stdout)
    if result.returncode != 0 or not os.path.isfile(BINARY):
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and (args.workload is None or args.seconds is None):
        ap.error("--workload and --seconds are required")

    build()

    if args.self_test:
        result = run([BINARY, "--self-test", "--seed", str(args.seed)],
                     RUN_TIMEOUT_S)
        sys.stdout.write(result.stdout)
        return result.returncode

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_file = None
    if args.trace:
        out_dir = os.path.join(BUILD_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        trace_file = os.path.join(
            out_dir, "trace-%s-%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_file]
    result = run(cmd, RUN_TIMEOUT_S)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        fail("depflow_e2e failed (exit %d)" % result.returncode)
    report = json.loads(lines[-1])

    if trace_file:
        check = run([sys.executable, TRACE_TOOL, "--check", trace_file],
                    RUN_TIMEOUT_S)
        report["attempted"] += 1
        if check.returncode != 0:
            print("perfbench: trace_analyze.py --check rejected " + trace_file,
                  file=sys.stderr)
            report["failed"] += 1
            report["correct"] = False

    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
