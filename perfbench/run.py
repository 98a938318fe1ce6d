#!/usr/bin/env python3
"""Builds the deployed chain and the benchmark binary from source, then
runs one benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Cargo builds into $CARGO_TARGET_DIR
(default: .bench_build). Build output goes to stderr; the binary's
last stdout line is the JSON result. Extra arguments pass through to
the binary (for example --flip-reply, the negative control).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(env):
    commands = [
        # The chain as deployed: the repository's own node binaries.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--bin", "vuvuzela-server", "--bin", "vuvuzela-entry"],
        # The benchmark binary: a package of its own against the same crates.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for command in commands:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(command)}", file=sys.stderr)
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not build(env):
        return 1
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--bin-dir", release,
        "--out-dir", os.path.join(target, "perfbench-out"),
    ]
    return subprocess.run(command, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
