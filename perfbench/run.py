#!/usr/bin/env python3
"""Build and run the MERLIN benchmark.

    python3 perfbench/run.py --workload big_net|many_nets \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Configures perfbench/CMakeLists.txt (which
builds the library and merlin_d from the parent tree) into .bench_build/,
builds it, and runs merlin_perfbench; the traced many_nets run spawns the
merlin_d it built.  Its last stdout line is the result JSON; the exit code
is the benchmark's (0 = every answer checked out).  Build output goes to
stderr so the result stays the last stdout line.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
TMP = os.path.join(ROOT, ".bench_build", "tmp")  # keeps compiler temporaries in the checkout


def build():
    os.makedirs(TMP, exist_ok=True)
    os.environ["TMPDIR"] = TMP
    jobs = str(os.cpu_count() or 1)
    cmds = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "merlin_perfbench"],
    ]
    for cmd in cmds:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    build()
    os.makedirs(WORK, exist_ok=True)
    cmd = [
        os.path.join(BUILD, "merlin_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--daemon", os.path.join(BUILD, "merlin", "tools", "merlin_d"),
        "--work-dir", os.path.relpath(WORK),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.call(cmd))


if __name__ == "__main__":
    main()
