#!/usr/bin/env python3
"""Build the pclust benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload p160k --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) and is reused
when up to date. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Exits non-zero without a result when the build
or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    args = sys.argv[1:] + ["--workdir", os.path.join(build_dir, "run")]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
