#!/usr/bin/env python3
"""Builds and runs the netent end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
benchmark (and the netent libraries from src/) under $CARGO_TARGET_DIR
(default .bench_build); later runs reuse that build. The program's report is
relayed when it ends; the last line of standard output is the JSON result,
whose metric names and units are checked against BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no netent sources (src/CMakeLists.txt) next to the benchmark")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", jobs])
    for command in steps:
        try:
            done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(command)}")
    return out / target


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last line of the benchmark output is not JSON")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("result line does not have exactly the keys " + ", ".join(sorted(RESULT_KEYS)))
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    wanted = expected_metrics(trace)
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        fail(f"metrics differ from BENCHMARK.json (missing {missing}, unexpected {extra}, "
             f"unit mismatch {units})")


def run_benchmark(args):
    binary = build("netent_perfbench")
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", str(traces)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as expired:
        sys.stdout.write(expired.stdout.decode() if isinstance(expired.stdout, bytes)
                         else expired.stdout or "")
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode}")
    check_result(lines[-1], args.trace)
    sys.stdout.write("\n".join(lines) + "\n")


def self_test():
    binary = build("perfbench_stats_test")
    sys.exit(subprocess.run([str(binary)], cwd=ROOT, check=False).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["admission-churn", "tenant-fleet", "risk-sweep",
                                               "drill"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the statistics helper's unit test")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if args.workload is None:
        parser.error("--workload is required")
    run_benchmark(args)


if __name__ == "__main__":
    main()
