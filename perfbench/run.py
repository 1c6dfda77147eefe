#!/usr/bin/env python3
"""Builds and runs the benchmark harness.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The library, fcc-served and the harness are
built from source into $CARGO_TARGET_DIR (default .bench_build) with CMake.
The harness prints one line per metric and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is the harness's: 0 when every output was correct, 1 when one was not, 2 on
a usage or set-up error (then no result is printed).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    for needed in ("src/CMakeLists.txt", "tools/fcc-served.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("missing %s: run from a checkout of the repository" % needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE="])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench", "fcc-served"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as error:
            fail("cannot run %s: %s" % (step[0], error))
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    build(build_dir)
    # The daemon's socket goes under the build directory; Unix socket paths
    # are short, so the harness gets it relative to the working directory.
    os.chdir(ROOT)
    out_dir = os.path.relpath(build_dir)
    harness = [os.path.join(build_dir, "perfbench"),
               "--out-dir", out_dir,
               "--server", os.path.join(build_dir, "fcc-served")]
    return subprocess.run(harness + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
