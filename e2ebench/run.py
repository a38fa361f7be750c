#!/usr/bin/env python3
"""Builds the end-to-end benchmark from the checkout's sources and runs it.

    python3 e2ebench/run.py --workload analyze_row --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to .bench_build/e2ebench
(Release, 4 jobs) and is incremental, so only the first run compiles. All
arguments are passed to the benchmark binary, whose last line of standard
output is the JSON result. Build output goes to standard error.
"""

import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def run_step(cmd, timeout):
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout}s: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def build():
    if not (ROOT / "src" / "cosy" / "analyzer.hpp").is_file():
        fail(f"no kojak sources under {ROOT / 'src'}; run from a checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_step(["cmake", "-S", str(HERE), "-B", str(BUILD),
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", str(BUILD), "-j", "4"], BUILD_TIMEOUT_S)


def commit():
    """The checkout's commit when it is a git repository, else 'unknown'."""
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    build()
    cmd = [str(BUILD / "e2ebench"), *sys.argv[1:], "--commit", commit()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark timed out after {RUN_TIMEOUT_S}s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
