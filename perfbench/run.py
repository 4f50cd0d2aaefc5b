#!/usr/bin/env python3
"""Build the airbench binary from source, then run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload udp_anomaly --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The simulator library (src/) and airbench (perfbench/*.cc) are configured
as a Release build in .bench_build/airbench and rebuilt incrementally on
every call; build output goes to stderr so that airbench's last stdout line
stays its JSON result. Every argument is passed on to airbench, together
with --source-id naming the commit (or, outside a git checkout, a hash of
the sources) the numbers were measured on.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "airbench")
BUILD_JOBS = "4"


def source_id():
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
        if commit:
            return "git:" + commit
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("airbench: no simulator sources at %s/src; run from a full checkout" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("airbench: build step failed: " + " ".join(step))


def main():
    build()
    binary = os.path.join(BUILD_DIR, "airbench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:] + ["--source-id", source_id()])


if __name__ == "__main__":
    main()
