#!/usr/bin/env python3
"""Build the randsync benchmark from source, then run one workload.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 10 --trace 0

The build (CMake, Release) goes to .bench_build/perfbench under the
repository root; spill files and span traces go to .bench_build/scratch.
All flags are passed to the benchmark binary, which checks them and
exits 2 on a bad one.  The last line on stdout is the run's result
object.  Exits 1 without a result if the build fails.
"""
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "scratch")


def build(target):
    """Configure once, then bring `target` up to date; output to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "build.ninja")) and \
                not os.path.exists(os.path.join(BUILD, "Makefile")):
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
        subprocess.run(["cmake", "--build", BUILD, "--target", target,
                        "-j", "4"], check=True, stdout=sys.stderr, env=env)
    return os.path.join(BUILD, target)


def main():
    try:
        binary = build("randsync_perfbench")
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    os.makedirs(SCRATCH, exist_ok=True)
    # Replace this process, so the benchmark leaves no child behind.
    os.execv(binary, [binary, "--scratch", SCRATCH, *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
