#!/usr/bin/env python3
"""Build the PROTEST benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
(RelWithDebInfo, the repository default) into $CARGO_TARGET_DIR or
.bench_build; later calls rebuild incrementally.  Build output goes to
stderr; the benchmark's result object is the last line of stdout.  The
exit code is the benchmark's: non-zero when the build fails or any
response fails its correctness check.
"""
import argparse
import os
import subprocess
import sys


def run(cmd, **kw):
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kw)


def commit(root):
    # Never let git walk above the checkout looking for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        print("perfbench: run from the root of a PROTEST checkout "
              "(CMakeLists.txt and src/ not found)", file=sys.stderr)
        return 2
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        if run(["cmake", "-S", bench_dir, "-B", build,
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]).returncode != 0:
            return 2
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run(["cmake", "--build", build, "-j", jobs,
            "--target", "perfbench", "protest_main"]).returncode != 0:
        return 2

    cmd = [os.path.join(build, "bin", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--data", os.path.join(bench_dir, "reference"),
           "--out", os.path.join(build, "results"),
           "--commit", commit(root)]
    try:
        return subprocess.run(cmd, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 175 s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
