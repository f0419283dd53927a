#!/usr/bin/env python3
"""Golden-output gate for the paper harnesses.

Every bench/golden/<harness>.txt holds the exact stdout of the harness
build/bench/<harness>. The simulation is deterministic, so a harness
that prints anything else has changed behaviour: either a regression,
or an intended change, which re-records the golden file from the
harness's stdout and says why in EXPERIMENTS.md.

Each harness runs in a fresh temporary directory because the harnesses
write BENCH_<name>.json sidecars into their working directory.

Usage:
  python3 tools/check_golden.py [--bench-dir build/bench]
                                [--golden-dir bench/golden]

Exit codes: 0 all match, 1 a harness failed or its stdout differs,
2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import difflib
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MAX_DIFF_LINES = 40


def run_harness(binary: Path) -> subprocess.CompletedProcess:
    with tempfile.TemporaryDirectory(prefix="golden-") as workdir:
        return subprocess.run([str(binary)], cwd=workdir,
                              capture_output=True, text=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir", type=Path,
                        default=REPO / "build" / "bench")
    parser.add_argument("--golden-dir", type=Path,
                        default=REPO / "bench" / "golden")
    args = parser.parse_args()

    goldens = sorted(args.golden_dir.glob("*.txt"))
    if not goldens:
        print(f"no golden files in {args.golden_dir}", file=sys.stderr)
        return 2

    failures = 0
    for golden in goldens:
        binary = args.bench_dir / golden.stem
        if not binary.is_file():
            print(f"{golden.stem}: no binary at {binary}", file=sys.stderr)
            return 2
        result = run_harness(binary)
        if result.returncode != 0:
            print(f"FAIL {golden.stem}: exit code {result.returncode}\n"
                  f"{result.stderr}")
            failures += 1
            continue
        expected = golden.read_text()
        if result.stdout == expected:
            print(f"ok   {golden.stem}")
            continue
        failures += 1
        diff = list(difflib.unified_diff(
            expected.splitlines(keepends=True),
            result.stdout.splitlines(keepends=True),
            fromfile=str(golden), tofile=f"{golden.stem} stdout"))
        print(f"FAIL {golden.stem}: stdout differs from the golden file")
        sys.stdout.writelines(diff[:MAX_DIFF_LINES])
        if len(diff) > MAX_DIFF_LINES:
            print(f"... {len(diff) - MAX_DIFF_LINES} more diff lines")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
