#!/usr/bin/env python3
"""Build the Hispar benchmark binary from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload measure_cold --seed 1 --seconds 15 --trace 0

The first call configures and builds perfbench/ (which compiles the
library from ../src) in Release mode under $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when the variable is unset; later calls only
re-check the build. Build output goes to stderr, so the last line of
stdout is the JSON result. Everything else is passed through to
the binary (see main.cpp for the flags). Per-run result files and span
traces land in <build dir>/results/.
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(bdir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target",
                  "hispar_perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return False
    return True


def main(argv):
    bdir = build_dir()
    try:
        built = build(bdir)
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    workdir = bdir / "work" / f"run-{os.getpid()}"
    # Defaults first: a flag repeated in argv overrides them.
    command = [str(bdir / "hispar_perfbench"),
               "--workdir", str(workdir),
               "--results-dir", str(bdir / "results"),
               "--expected", str(HERE / "expected.txt"),
               "--git-commit", git_commit(), *argv]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
