#!/usr/bin/env python3
"""Check BENCH_contention.json against the code.

Runs bench_contention --json into a temporary file and fails unless the
committed snapshot records the same run: the same tables, counters,
gauges and histograms. Left out are the fields that follow the host
rather than the code: the `*_us` host timers, the worker counts
(`env.jobs` and the `driver.threads` gauge, which follow AREGION_JOBS)
and `env.hardware_concurrency`.

After a change that moves the record on purpose, rewrite the snapshot
with `cmake --build build --target bench-contention`.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

USAGE = ("usage: tools/check_contention_snapshot.py <bench_contention> "
         "<BENCH_contention.json>")
HOST_FIELDS = {"env/jobs", "env/hardware_concurrency",
               "telemetry/gauges/driver.threads"}
ABSENT = "(absent)"


def flatten(value, path="", out=None):
    """Map each scalar, or list of scalars such as a table row, to its
    '/'-joined path."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for key, item in value.items():
            flatten(item, f"{path}/{key}" if path else key, out)
    elif isinstance(value, list) and any(
            isinstance(item, (dict, list)) for item in value):
        for i, item in enumerate(value):
            flatten(item, f"{path}[{i}]", out)
    else:
        out[path] = value
    return out


def record(doc):
    return {path: value for path, value in flatten(doc).items()
            if path not in HOST_FIELDS and not path.endswith("_us")}


def main(argv):
    if len(argv) != 3:
        print(USAGE, file=sys.stderr)
        return 2
    binary, snapshot = argv[1], Path(argv[2])
    with tempfile.TemporaryDirectory() as tmp:
        fresh_path = Path(tmp) / "fresh.json"
        run = subprocess.run([binary, "--json", str(fresh_path)],
                             stdout=subprocess.DEVNULL)
        if run.returncode != 0:
            print(f"{binary} exited {run.returncode}", file=sys.stderr)
            return 1
        fresh = record(json.loads(fresh_path.read_text()))
    committed = record(json.loads(snapshot.read_text()))

    stale = 0
    for path in sorted(committed.keys() | fresh.keys()):
        was, now = committed.get(path, ABSENT), fresh.get(path, ABSENT)
        if was != now:
            print(f"{snapshot.name}: {path}: committed {was}, "
                  f"fresh run {now}")
            stale += 1
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
