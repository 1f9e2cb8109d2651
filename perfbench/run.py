#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload batch_ragged --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package and the `uctr-served` daemon in release
mode (into $CARGO_TARGET_DIR, default `.bench_build`), then runs the
benchmark binary with the given arguments. Its standard output, whose last
line is the JSON result, is passed through unchanged; build output goes to
standard error. Exits non-zero, printing no result, when a build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        ["--manifest-path", str(HERE / "Cargo.toml")],
        ["--manifest-path", str(ROOT / "Cargo.toml"), "-p", "uctr", "--bin", "uctr-served"],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = target / "release"
    cmd = [
        str(release / "perfbench"),
        "--daemon", str(release / "uctr-served"),
        "--trace-dir", str(target / "perfbench-traces"),
        *sys.argv[1:],
    ]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
