#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload fig9_fluid --seed 1 --seconds 10 --trace 0

Configures perfbench/CMakeLists.txt (the library from src/ plus the driver,
Release) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench
under the repository root, builds it incrementally, then runs the driver.
Build output goes to stderr; the driver's report and its final JSON result
line go to stdout. Extra flags (--scale tiny, --reference FILE, ...) are
passed through to the driver. Exits non-zero, printing no result, when the
library sources are missing or the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build() -> Path:
    """Configures (once) and builds the driver; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: library sources not found under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(out), "--target", "cloudfog_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: build timed out")
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "cloudfog_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if "--reference" not in extra:
        cmd += ["--reference", str(HERE / "reference_digests.json")]
    if args.trace and "--trace-out" not in extra:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    cmd += extra

    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: driver exited {done.returncode}", file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: driver printed no JSON result", file=sys.stderr)
        return 1
    # Report lines first, the JSON result as the last stdout line.
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
