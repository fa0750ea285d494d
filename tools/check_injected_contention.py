#!/usr/bin/env python3
"""Check bench_contention under fault injection.

Runs `bench_contention --contexts 4 --json <tmp>` with the failpoints
that AREGION_FAILPOINTS and AREGION_FAILPOINT_SEED arm. Fails unless
the run exits 0, so every injected cell passed its oracles, and its
export records the armed set as `inject` and the seed as
`inject_seed`, so the run can be replayed from its record.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

USAGE = "usage: tools/check_injected_contention.py <bench_contention>"


def main(argv):
    armed = os.environ.get("AREGION_FAILPOINTS", "")
    seed = os.environ.get("AREGION_FAILPOINT_SEED", "")
    if len(argv) != 2 or not armed or not seed.isdigit():
        print(USAGE + " (with AREGION_FAILPOINTS and "
              "AREGION_FAILPOINT_SEED set)", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "injected.json"
        run = subprocess.run([argv[1], "--contexts", "4", "--json",
                              str(path)], stdout=subprocess.DEVNULL)
        if run.returncode != 0:
            print(f"{argv[1]} exited {run.returncode}", file=sys.stderr)
            return 1
        doc = json.loads(path.read_text())

    failed = 0
    # The export lists the armed set sorted by name.
    recorded = doc.get("inject")
    if recorded is None or sorted(recorded.split(",")) != \
            sorted(armed.split(",")):
        print(f"inject: armed {armed!r}, exported {recorded!r}")
        failed += 1
    if doc.get("inject_seed") != int(seed):
        print(f"inject_seed: armed {seed}, exported "
              f"{doc.get('inject_seed')!r}")
        failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
