#!/usr/bin/env python3
"""Build the ER engine benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <solve-othello|serve-random|selfplay-warm> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the engine crates under crates/ by path. It is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build at the checkout root);
build output goes to standard error, so the last line of standard output
is the benchmark's JSON result. The exit code is the benchmark's: non-zero
when the build fails, the engine sources are missing, or any output of the
program under test is wrong.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "crates", "parallel", "Cargo.toml")):
        print(
            "perfbench: engine sources (crates/) not found next to perfbench/; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
