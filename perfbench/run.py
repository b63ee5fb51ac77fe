#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload cold-planar --seed 1 --seconds 15 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build)/perfbench; build output goes to stderr, so the last line on
stdout is the benchmark's JSON result. Extra arguments after the four
required ones (--scale, --panel-sync, --rate) are passed
through to the driver unchanged.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "CMakeLists.txt")):
        sys.exit("run.py: no CMakeLists.txt at the repository root; "
                 "the benchmark builds the library from source")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    build(build_dir)
    exe = os.path.join(build_dir, "slu3d_perfbench")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
