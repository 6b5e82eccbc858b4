#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [extra perfbench flags, e.g. --threads 1]

Run from the root of a checkout.  The first call configures and builds
(CMake, Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset; later calls only rebuild what changed.  Build output
goes to stderr.  With --trace 1 the span dump is written to
<build>/traces/<workload>-seed<N>.csv.  The last line of stdout is the
result object printed by the benchmark; the exit code is non-zero when the
build or the run fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lu-large", "lu-mixed", "batch-small", "service-open")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cfg, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", out, "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def commit_id():
    """The git commit when the checkout is a repository, else a digest of
    the library sources (a checkout without .git still identifies)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                stderr=subprocess.DEVNULL, text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = ap.parse_known_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", commit_id()]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.csv" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.call(cmd + extra)


if __name__ == "__main__":
    sys.exit(main())
