#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run it from the repository root. The first run configures and builds
this package and the repository libraries it links into
.bench_build/perfbench; later runs rebuild only what changed. The build
log goes to stderr. Every argument is passed on to the benchmark binary,
whose last line of stdout is the result JSON (README.md). Exits non-zero
without a result when the repository sources are missing or the build
fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

# The first run builds; the whole of it must end within 900 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175

# What the binary is built from, for the run record (documentation
# excluded, so editing it leaves the digest alone).
DIGEST_INPUTS = ("CMakeLists.txt", "src", "bench", PACKAGE.name)


def source_digest():
    paths = []
    for name in DIGEST_INPUTS:
        top = ROOT / name
        paths += [top] if top.is_file() else sorted(
            p for p in top.rglob("*") if p.is_file() and p.suffix != ".md")
    h = hashlib.sha256()
    for path in paths:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no repository sources in {ROOT}", file=sys.stderr)
        return None
    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(jobs)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build failed: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return None
    return BUILD / "perfbench"


def main(argv):
    binary = build()
    if binary is None:
        return 2
    cmd = [str(binary)] + argv
    if "--selftest" not in argv:
        cmd += ["--source", source_digest(), "--spans", str(BUILD / "spans")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
