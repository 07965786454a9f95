#!/usr/bin/env python3
"""Build and run psketch's benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload synth --seed 1 --seconds 20 --trace 0

The Go build cache, the benchmark binary, traces and service journals
all live under .bench_build/ in the repository root; nothing is written
elsewhere. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        # Keep the toolchain's caches, scratch files, config and telemetry
        # inside the checkout, and never fetch a toolchain or module.
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": tmp,
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode or 1)
    args = sys.argv[1:] + [
        "--answers", os.path.join(here, "answers.json"),
        "--build-dir", build,
    ]
    bench = subprocess.Popen([binary] + args, cwd=root, env=env)
    try:
        sys.exit(bench.wait())
    finally:
        if bench.poll() is None:
            bench.terminate()
            bench.wait()


if __name__ == "__main__":
    main()
