#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <dse-sweep|drive-long|fleet-admit> \
        --seed <n> --seconds <s> --trace <0|1>

The build is an offline release build of the `perfbench` package
(`perfbench/Cargo.toml`), placed in `CARGO_TARGET_DIR` when set, else in
`perfbench/target`. Build output goes to standard error. The benchmark's
own output follows on standard output; its last line is the JSON result.
The exit code is the benchmark's: 0 when every output check passed, 1
when one failed, 2 on bad arguments; a failed build exits non-zero
without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def build():
    """Builds the release binary; returns its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.abspath(target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", MANIFEST, "--target-dir", target,
    ]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def main():
    binary = build()
    if binary is None:
        return 3
    sys.stdout.flush()
    try:
        done = subprocess.run([binary, *sys.argv[1:]], timeout=175)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
