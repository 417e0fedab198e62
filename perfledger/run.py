#!/usr/bin/env python3
"""Build and run one workload of the performance ledger.

    python3 perfledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
perfledger/ (which pulls in the repository's src/) into .bench_build, or
into $CARGO_TARGET_DIR when that is set; later runs only re-check the
build. The ledger's arithmetic tests run before every measurement. The
last line of standard output is the ledger's JSON result; build logs go to
standard error. Exits non-zero, printing no result, when the build, the
tests or the run fail.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("citroen_suite", "modelfree_parallel", "daemon_sandboxed")


def run(cmd, cwd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()

    root = os.getcwd()
    here = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), root)
    build = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", root)
    if build.startswith(".."):
        print("perfledger: the build directory must lie inside the source tree", file=sys.stderr)
        return 2

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        if not run(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], root):
            return 1
    jobs = str(min(4, os.cpu_count() or 1))
    if not run(["cmake", "--build", build, "-j", jobs, "--target", "perf_ledger", "perf_ledger_test"], root):
        return 1
    if not run([os.path.join(build, "perf_ledger_test"), "--gtest_brief=1"], root):
        return 1

    # Relative paths keep the daemon's Unix socket path short however deep
    # the source tree sits; the ledger and the daemon share this cwd.
    workdir = os.path.join(build, "run-%d" % os.getpid())
    try:
        res = subprocess.run(
            [
                os.path.join(build, "perf_ledger"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", args.trace,
                "--citroend", os.path.join(build, "citroen_src", "serve", "citroend"),
                "--workdir", workdir,
            ],
            cwd=root,
            stdout=subprocess.PIPE,
            text=True,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if res.returncode != 0:
        return res.returncode
    sys.stdout.write(res.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
