#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload relay --seed 1 --seconds 20 --trace 0

Run it from the repository root.  The build goes to _build/ with dune's
shared cache off, so nothing is written outside the working directory;
its output goes to stderr, leaving stdout to the benchmark, whose last
line is the result object.  Any argument error, build failure or failed
correctness check ends with a non-zero exit code.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./perfbench/main.exe"],
        cwd=root, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
