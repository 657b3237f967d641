#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run in a checkout configures and
builds perfbench/CMakeLists.txt (the MILR libraries plus the perfbench
binary) into $CARGO_TARGET_DIR, default .bench_build; later runs only
re-check the build.
Build output goes to stderr, so the binary's last stdout line, one JSON
object, stays the last line.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def source_stamp():
    """A digest of the sources the benchmark builds, standing in for a
    commit id (checkouts need not be git repositories)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in (ROOT / "src", BENCH_DIR):
        files += sorted(p for p in tree.rglob("*") if p.is_file())
    for path in files:
        if "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def build(out):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", BUILD_JOBS])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    binary = out / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-out", default="",
                        help="traced run: write its spans as a Chrome trace")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no MILR source tree (CMakeLists.txt, src/)")
    binary = build(build_dir())

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace_out:
        command += ["--trace-out", args.trace_out]
    env = dict(os.environ, PERFBENCH_SOURCE=source_stamp())
    try:
        result = subprocess.run(command, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode != 0:
        fail(f"perfbench exited with code {result.returncode}")
    lines = result.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench printed no result line")
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")


if __name__ == "__main__":
    main()
