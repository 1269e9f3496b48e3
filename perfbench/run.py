#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures and builds the
library and the driver under .bench_build/perfbench (CMake, Release);
later calls only rebuild what changed.  Each run works in its own scratch
directory under .bench_build, removed when the run ends.  The last line
printed is the run's result as one JSON object; see perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "core", "ellis_v2.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            step(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + gen)
        step(["cmake", "--build", BUILD, "-j", "4"])


def step(cmd):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build step failed: " + " ".join(cmd))


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run(cmd, cwd):
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    build()
    if args.selftest:
        code, out = run([os.path.join(BUILD, "perfbench_selftest")], ROOT)
        sys.stdout.write(out)
        sys.exit(code)

    workdir = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    os.makedirs(workdir)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        print('{"build": {"commit": "%s", "source_sha256": "%s", '
              '"build_type": "%s"}}' % (commit(), source_digest(), BUILD_TYPE))
        code, out = run(cmd, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
