#!/usr/bin/env python3
"""Build the end-to-end synthesis benchmark and run it.

Run from the repository root:

    python3 e2ebench/run.py --workload approx_er --seed 1 --seconds 10 --trace 0

The benchmark executable is built with dune (into _build/, with the shared
dune cache disabled so nothing is written outside the checkout) and run
with the given arguments.  Its last line of standard output is the JSON
result.  A failed build exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "e2ebench", "main.exe")


def main():
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", ".", "--display", "quiet", "./e2ebench/main.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.exit(build.returncode or 1)
    sys.exit(subprocess.run([EXE] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
