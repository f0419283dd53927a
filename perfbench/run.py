#!/usr/bin/env python3
"""Builds and runs the QuaSAQ delivery benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper_replay --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-test

The first form builds the benchmark from source (CMake, into
.bench_build/perfbench, or $CARGO_TARGET_DIR/perfbench when that is
set), runs one workload and prints one line per metric followed, as the
last line, by a JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics and --trace 1 the
per-layer ones, also writing a Chrome trace (Perfetto-loadable) to
<build>/traces/. The exit status is non-zero when the build fails, an
operation fails or a check does not hold. --self-test builds and runs the
benchmark's own unit tests (needs GoogleTest).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(target):
    """Configures (once) and builds `target`; returns the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no QuaSAQ sources under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return out


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def validate(result, trace):
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}"
    names = expected_metrics(trace)
    if sorted(result["metrics"]) != sorted(names):
        missing = set(names) - set(result["metrics"])
        extra = set(result["metrics"]) - set(names)
        return f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, extra {sorted(extra)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        out = build("perfbench_tests")
        sys.exit(subprocess.run([str(out / "perfbench_tests")]).returncode)
    if not args.workload:
        fail("--workload is required")

    out = build("quasaq_perfbench")
    command = [str(out / "quasaq_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-file",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(run.stdout)
        fail(f"no result line (exit status {run.returncode})")
    problem = validate(result, args.trace)
    if problem:
        sys.stderr.write(run.stdout)
        fail(problem)
    print("\n".join(lines[:-1]))
    print(lines[-1])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
