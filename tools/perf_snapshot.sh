#!/bin/sh
# Refresh a host-performance snapshot: run one of the bench binaries
# and write its --json export (tables + telemetry + bench.* gauges)
# to the matching BENCH_*.json at the repo root.
#
# Usage:
#   tools/perf_snapshot.sh [binary] [out.json]   # explicit pair
#   tools/perf_snapshot.sh --simulator           # BENCH_simulator.json
#   tools/perf_snapshot.sh --contention          # BENCH_contention.json
#   tools/perf_snapshot.sh --all                 # both of the above
#
# The ctest Catalog.CommittedSnapshotsMatchCatalog
# (tests/support_telemetry_test.cc) checks every committed snapshot
# against the telemetry catalog, so refresh them with --all whenever
# a key is added or removed.
#
# No arguments defaults to --simulator (the historical behaviour).
# Each mode assumes the standard build directory layout; the cmake
# targets bench-perf / bench-contention call the explicit form with
# the freshly built binary.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"

snapshot() {
    bin="$1"
    out="$2"
    if [ ! -x "$bin" ]; then
        echo "perf_snapshot: $bin not built (cmake --build build --target $(basename "$bin"))" >&2
        exit 1
    fi
    "$bin" --json "$out"
    echo "perf_snapshot: wrote $out"
}

case "${1:-}" in
--simulator)
    snapshot "$root/build/bench/simulator_throughput" \
        "$root/BENCH_simulator.json"
    ;;
--contention)
    snapshot "$root/build/bench/bench_contention" \
        "$root/BENCH_contention.json"
    ;;
--all)
    snapshot "$root/build/bench/simulator_throughput" \
        "$root/BENCH_simulator.json"
    snapshot "$root/build/bench/bench_contention" \
        "$root/BENCH_contention.json"
    ;;
--*)
    echo "perf_snapshot: unknown mode $1" >&2
    exit 2
    ;;
*)
    snapshot "${1:-$root/build/bench/simulator_throughput}" \
        "${2:-$root/BENCH_simulator.json}"
    ;;
esac
