#!/usr/bin/env python3
"""Builds the SND benchmark and the `snd` binary from source, then runs it.

Run from the repository root:

    python3 perfbench/run.py --workload pairwise --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --tiny

Both programs are built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build` at the repository root). Build
output goes to stderr, so the benchmark's last stdout line stays its JSON
result. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "snd-cli", "--bin", "snd"],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        status = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr).returncode
        if status != 0:
            sys.exit(status or 1)
    bench = os.path.join(target, "release", "perfbench")
    snd = os.path.join(target, "release", "snd")
    args = [bench, "--snd", snd] + sys.argv[1:]
    sys.exit(subprocess.run(args, env=env, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
