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
#   tools/perf_snapshot.sh --check-compile-telemetry [snapshot.json]
#       Validate compile-time telemetry in an existing snapshot
#       (default BENCH_simulator.json): fails when an aggregate
#       counter is zero while its components are non-zero — the
#       shape of the jit.compile_us=0 / jit.pass.*_us>0 aggregation
#       bug — or when jit.compile_us < the sum of the per-pass
#       timers it must cover.
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

# Sum + aggregate consistency checks over an existing snapshot. Pure
# POSIX sh + awk so the mode works anywhere the snapshots do.
check_compile_telemetry() {
    snap="$1"
    if [ ! -r "$snap" ]; then
        echo "perf_snapshot: $snap not found (run a snapshot mode first)" >&2
        exit 1
    fi
    awk '
    # Collect every "key": value counter in the snapshot.
    {
        line = $0
        while (match(line, /"[a-z][a-z0-9_.]*": *-?[0-9]+/)) {
            kv = substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
            sep = index(kv, "\":")
            key = substr(kv, 2, sep - 2)
            val = substr(kv, sep + 2) + 0
            counters[key] = val
        }
    }
    END {
        status = 0
        pass_sum = 0
        pass_nonzero = 0
        for (k in counters) {
            if (k ~ /^jit\.pass\./) {
                pass_sum += counters[k]
                if (counters[k] > 0)
                    pass_nonzero++
            }
        }
        compile = counters["jit.compile_us"]
        if (pass_nonzero > 0 && compile == 0) {
            print "check-compile-telemetry: jit.compile_us is 0 while " \
                  pass_nonzero " jit.pass.* timers are non-zero" > "/dev/stderr"
            status = 1
        }
        if (compile < pass_sum) {
            print "check-compile-telemetry: jit.compile_us (" compile \
                  ") < sum of jit.pass.*_us (" pass_sum ")" > "/dev/stderr"
            status = 1
        }
        if (counters["profile.bytecodes"] > 0 && \
            counters["profile.invocations"] == 0) {
            print "check-compile-telemetry: profile.invocations is 0 " \
                  "while profile.bytecodes is non-zero" > "/dev/stderr"
            status = 1
        }
        if (status == 0)
            print "check-compile-telemetry: " FILENAME " OK " \
                  "(jit.compile_us=" compile " >= pass sum " pass_sum ")"
        exit status
    }' "$snap"
}

case "${1:-}" in
--check-compile-telemetry)
    check_compile_telemetry "${2:-$root/BENCH_simulator.json}"
    ;;
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
