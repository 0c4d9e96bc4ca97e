#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

usage (from the root of a checkout):
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/main.exe with dune (the repository's own build; the
shared dune cache is off so everything stays inside the checkout), then
runs it with the given arguments.  The last line of stdout is the
result JSON; build output and progress go to stderr.  A traced run
writes its spans under perfbench/out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.stderr.write("perfbench: the program's sources (dune-project, lib/) "
                         "are not beside perfbench/; nothing to build\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    run = subprocess.run([exe, *sys.argv[1:]], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
