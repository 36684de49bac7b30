#!/usr/bin/env python3
"""Builds and runs the anycastd benchmark for one workload.

    python3 perfbench/run.py --workload census|paper|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench (the libraries under src/ plus the load generator under
perfbench/src) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls only rebuild what changed. Scratch files go to .bench_run.
The last line of standard output is the run's JSON result. The exit code
is 0 only when the build succeeded, every output check passed and no
operation failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("census", "paper", "serve")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds perfbench; returns the binary path."""
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
                              check=False)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    binary = build_dir / "perfbench"
    if not binary.exists():
        raise RuntimeError(f"no binary at {binary}")
    return binary


def declared_metrics(root, trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    spec_path = root / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    try:
        binary = build(root, build_dir)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as error:
        log(str(error))
        return 1

    work_dir = root / ".bench_run"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--work-dir", str(work_dir)]
    with subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True) as child:
        try:
            output, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            log(f"run exceeded {RUN_TIMEOUT_S} s")
            return 1
    shutil.rmtree(work_dir / "census", ignore_errors=True)

    lines = output.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"no JSON result (exit code {child.returncode})")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("result has the wrong keys")
        return 1
    declared = declared_metrics(root, args.trace == 1)
    if declared is not None and set(result["metrics"]) != declared:
        emitted = set(result["metrics"])
        log("metrics differ from BENCHMARK.json: missing " +
            (", ".join(sorted(declared - emitted)) or "none") +
            "; undeclared " + (", ".join(sorted(emitted - declared)) or "none"))
        return 1
    print(lines[-1], flush=True)
    if child.returncode != 0 or not result["correct"] or result["failed"]:
        log(f"run failed its checks (exit code {child.returncode})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
