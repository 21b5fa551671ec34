#!/usr/bin/env python3
"""Build and run the poly-prof-rs benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (a cargo workspace of its own that depends on
the repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it. Recordings, spooled uploads and the
span file of a traced run go to `<target dir>/perfbench-run`. The last line
of standard output is the result JSON; build output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: no poly-prof-rs sources (crates/) next to perfbench/; nothing to build",
              file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    workdir = os.path.join(target, "perfbench-run")
    os.makedirs(workdir, exist_ok=True)
    exe = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    return subprocess.run([exe, *sys.argv[1:], "--workdir", workdir], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
