#!/usr/bin/env python3
"""Build and run the finbench benchmark.

Usage (from the root of a finbench source tree):

    python3 perfbench/run.py --workload quote_stream --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (the finbench library plus the
finbench_perf binary) into .bench_build/perfbench, then runs one workload
and relays its output. The last line of standard output is the result:
one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Any other option is passed to the binary unchanged (for example the
frozen quote_stream rates, --light-rps and --heavy-rps).

Exits non-zero without printing a result when the tree cannot be built
(for example when only the benchmark's own files are present).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ("quote_stream", "bs_book", "exotic_book")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git sha when the tree is a git checkout, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "include", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def build():
    for need in ("CMakeLists.txt", "src", "include", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found under {ROOT}: run from the root of a finbench source tree")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "finbench_perf", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "finbench_perf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT, "--git-sha", source_id(),
           "--build-info", os.path.join(BUILD, "build_info.txt")] + extra
    env = dict(os.environ)
    env.pop("FINBENCH_TUNE_CACHE", None)  # cold tune races: a memory-only plan cache
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"finbench_perf exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("finbench_perf printed no result line")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
