#!/usr/bin/env python3
"""Builds diffnet and the benchmark from source, then runs one workload.

    python3 diffbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
(default `.bench_build`), run files to `.bench_runs/`. The last line of
stdout is the result object; the exit code is non-zero when the build,
the run, or a correctness gate fails.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates/cli")):
        sys.stderr.write("run.py: run from the root of a diffnet checkout\n")
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "diffnet-cli", "--bin", "diffnet"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "diffbench/Cargo.toml"],
    ]
    for cmd in builds:
        # Build chatter goes to stderr; stdout carries only the benchmark.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return 1
    bench = os.path.join(target, "release", "diffnet-benchmark")
    daemon = os.path.join(target, "release", "diffnet")
    sys.stdout.flush()
    return subprocess.run([bench] + sys.argv[1:] + ["--diffnet", daemon], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
