#!/usr/bin/env python3
"""Build and run the irep benchmark.

    python3 perfbench/run.py --workload paper-live --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the repository's
libraries from src/) into .bench_build/perfbench, then runs the
benchmark program, irep_perfbench, with every IREP_* variable removed
from its environment and TMPDIR inside .bench_build. Build output goes
to stderr; the program's standard output is passed through, its last
line being the JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "irep_perfbench")
# Compiler and run temporaries stay inside the checkout too.
TMP = os.path.join(ROOT, ".bench_build", "tmp")


def environment():
    env = {k: v for k, v in os.environ.items() if not k.startswith("IREP_")}
    env["TMPDIR"] = TMP
    return env


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "irep_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=environment())
        if done.returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    os.makedirs(TMP, exist_ok=True)
    if not build():
        return 1
    done = subprocess.run([BINARY] + sys.argv[1:], env=environment(),
                          cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
