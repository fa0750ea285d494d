#!/bin/sh
# Build the repo under the asan-ubsan preset (CMakePresets.json) and
# run the full tier-1 ctest suite with AddressSanitizer +
# UndefinedBehaviorSanitizer armed, then rebuild under the tsan
# preset and run the contention torture tests (multi-context
# workloads driving the shared failpoint/telemetry registries from
# parallel grid workers) plus the fuzz smoke under ThreadSanitizer.
# Any sanitizer report fails the offending test
# (-fno-sanitize-recover=all aborts on the first finding), so a
# green run means the suite is clean under all three.
#
# Usage: tools/check_sanitizers.sh [extra ctest args...]
#   e.g. tools/check_sanitizers.sh -R Failpoint
# Extra args apply to the ASan+UBSan leg; the TSan leg's filter is
# fixed. AREGION_SKIP_TSAN=1 skips the TSan leg (for quick loops).
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/build-asan"
build_tsan="$root/build-tsan"

cmake --preset asan-ubsan -S "$root"
cmake --build "$build" -j "$(nproc 2>/dev/null || echo 4)"

# halt_on_error keeps reports fatal even where the recover flag is
# not honoured; detect_leaks stays on (the default) to catch leaked
# allocations in the simulator hot paths.
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
    ctest --test-dir "$build" --output-on-failure \
          -j "$(nproc 2>/dev/null || echo 4)" "$@"

# Differential fuzz smoke (docs/FUZZING.md) under the sanitizers,
# run explicitly so a filtered ctest invocation (-R ...) still
# covers it: random program shapes probe the interpreter, evaluator,
# and machine for memory errors as well as semantic drift.
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
    "$build/tools/fuzz_diff" --seeds 200 --masks canonical --quiet

# IR/opt leg, run explicitly so a filtered invocation still covers
# the SSA round-trip and the sparse scalar passes: buildSSA/destroySSA
# splice and free phi instructions aggressively, and the pass
# verifier (AREGION_VERIFY_PASSES) re-walks the full IR after every
# stage — prime territory for use-after-free and indexing errors —
# and checks that a pass reporting no change left the function
# untouched, the premise of the pipeline's exit.
AREGION_VERIFY_PASSES=1 \
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
    ctest --test-dir "$build" --output-on-failure \
          -j "$(nproc 2>/dev/null || echo 4)" -R 'Ir|Opt'

# Bisimulation-oracle leg (docs/RESILIENCE.md), run explicitly for
# the same reason as the smoke above: a filtered invocation must
# still exercise the abort-replay machinery (every replay walks raw
# heap words through the copy-on-write HeapView) under the
# sanitizers.
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
    ctest --test-dir "$build" --output-on-failure \
          -j "$(nproc 2>/dev/null || echo 4)" -R 'Bisim'

echo "check_sanitizers: tier-1 suite + fuzz smoke + bisim clean under ASan+UBSan"

if [ "${AREGION_SKIP_TSAN:-0}" = "1" ]; then
    echo "check_sanitizers: TSan leg skipped (AREGION_SKIP_TSAN=1)"
    exit 0
fi

# ThreadSanitizer leg. TSan cannot be combined with ASan, so it gets
# its own preset/build dir. The filter selects the contention
# torture suite (grid cells run on parallel::runGrid host workers at
# 2/4/8 hardware contexts, hammering the process-global failpoint
# and telemetry registries), the differential fuzz smoke, and the
# bisimulation-oracle suites (the bisim replayer reads the shared
# heap while other contexts' state sits in the same Machine) — the
# paths where host-thread races can live. The Ir|Opt
# leg rides along: compiles run concurrently on grid cells, so the
# SSA passes' shared telemetry writes belong under TSan too. So does
# the experiment-store suite (StoreTest.*): grid workers look up,
# insert and share the store's profiles and compiled code behind
# runExperiment.
cmake --preset tsan -S "$root"
cmake --build "$build_tsan" -j "$(nproc 2>/dev/null || echo 4)"

TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "$build_tsan" --output-on-failure \
          -j "$(nproc 2>/dev/null || echo 4)" \
          -R 'Contention|Store|fuzz-smoke|Bisim|Ir|Opt'

echo "check_sanitizers: contention + store + ir/opt + bisim suites + fuzz smoke clean under TSan"
