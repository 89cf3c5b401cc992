#!/usr/bin/env python3
"""Builds the vbmc benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bug-hunt --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build) and is reused by
later runs. The last line of standard output is the benchmark's JSON result;
build logs and progress go to standard error. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within three minutes; the benchmark itself stops starting
# new work after two.
RUN_TIMEOUT_S = 170


def build(build_dir, env):
    # A failed configure still leaves a CMakeCache.txt behind, so look for
    # the generated build system instead.
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "vbmc_perfbench", "-j", "4"],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, "vbmc_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=["bug-hunt", "safe-proof", "serve-mix"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that seeded counters and serve-mix inputs "
                         "repeat exactly")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    # Compiler temporaries and anything else that honours TMPDIR stay in
    # the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        os.makedirs(tmp_dir, exist_ok=True)
        binary = build(build_dir, env)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"benchmark build failed: {e}", file=sys.stderr)
        return 1

    if args.self_test:
        cmd = [binary, "--self-test"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The build directory is the working directory, so the daemon's socket
    # lands there.
    proc = subprocess.Popen(cmd, cwd=build_dir, env=env,
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
