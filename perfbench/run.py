#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload read-mix --seed 1 --seconds 25 --trace 0

Run from the repository root. The Go build cache, the binary, scratch
stores and trace spans all go under .bench_build/ in the current
directory, so nothing is read or written outside it. The exit code and
standard output are the benchmark's own; build output goes to standard
error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.path.abspath(".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, stderr=sys.stderr)
    except OSError as err:
        print(f"run.py: cannot run the go toolchain: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 2
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
