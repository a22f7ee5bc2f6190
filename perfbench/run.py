#!/usr/bin/env python3
"""Build and run the SPT host-performance benchmark.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload tick_serial --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ and the src/ libraries it links into .bench_build/
at the checkout root with CMake, then runs the benchmark binary from
the checkout root with the same arguments. Build output goes to
stderr and the binary's stdout is passed through, so the last stdout
line is the JSON result. Exits 2 when the checkout has no src/ tree
or the build fails, 70 when the binary dies on a signal, and
otherwise with the binary's exit code (0 correct, 1 a check failed,
2 usage error).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "spt_perfbench")


def build():
    """Configures once, then builds incrementally; False on failure."""
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "spt_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"perfbench: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print(f"perfbench: no src/ tree in {ROOT}; the benchmark builds "
              "the simulator from source", file=sys.stderr)
        return 2
    if not build():
        return 2
    code = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode
    return code if code >= 0 else 70


if __name__ == "__main__":
    sys.exit(main())
