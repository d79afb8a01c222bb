#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <rounds_certified|hunt_ensemble|serve_mix> \
        --seed N --seconds N --trace <0|1>

Run from the repository root. Cargo builds into $CARGO_TARGET_DIR when it
is set, else into perfbench/target. Build output goes to standard error,
so the last line of standard output is the benchmark's result object.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--quiet", "--offline",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "-p", "ksa-perfbench", "-p", "ksa-server",
        ],
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print(f"run.py: build failed with exit code {build.returncode}", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    exe = os.path.join(release, "perfbench")
    args = sys.argv[1:] + ["--server-bin", os.path.join(release, "ksa-server")]
    return subprocess.run([exe, *args], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
