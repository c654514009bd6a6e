#!/usr/bin/env python3
"""Builds the knnpc benchmark driver from source and runs one workload.

    python3 knnbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a knnpc source tree. The first call configures and
builds the library and the driver (Release) into .bench_build/ under that
root; later calls only bring the build up to date. All other arguments are
passed to the driver (knnbench/src/main.cpp), whose last stdout line is the
result JSON. The exit code is the driver's; 2 when the tree cannot be built.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "knn_bench")


def fail(message):
    print("knnbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no knnpc sources next to " + HERE)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "knn_bench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as done:
                    sys.stderr.write(done.read()[-4000:])
                fail("build failed (log: %s)" % log_path)


def git_sha():
    # The tree may be an export without .git; never look above ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    build()
    command = [BINARY] + sys.argv[1:] + ["--git-sha", git_sha()]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
