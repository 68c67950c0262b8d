#!/usr/bin/env python3
"""Build the walk benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 walkbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library and the benchmark are built with CMake into the directory
named by CARGO_TARGET_DIR (default .bench_build); graph files and traces
go to .bench_out.  The last line of standard output is the benchmark's
JSON result; build output goes to standard error.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "walkbench")


def main():
    root = os.getcwd()
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "walkbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"walkbench: build failed: {err}", file=sys.stderr)
        return 1
    out_dir = os.path.join(root, ".bench_out")
    return subprocess.run([binary, *sys.argv[1:], "--out", out_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
