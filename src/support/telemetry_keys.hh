/**
 * @file
 * The canonical catalog of telemetry keys.
 *
 * AREGION_TELEMETRY_KEYS is the one list: a row X(constant, key,
 * kind) per key. It expands into the `keys::k*` constants that
 * instrumentation sites use (so a typo is a compile error) and into
 * kCatalog, which preregister() and the checks read:
 *
 *  - tools/verify_docs.cc (the `verify_docs` ctest) checks that the
 *    key-table rows of docs/TELEMETRY.md are exactly this catalog,
 *    each with this kind, and that docs cite only real keys and
 *    constants;
 *  - tests/support_telemetry_test.cc checks that every key registered
 *    by a full experiment is catalogued and that the committed
 *    BENCH_*.json snapshots carry exactly this catalog.
 *
 * Adding a key takes one row here and one row in docs/TELEMETRY.md.
 */

#ifndef AREGION_SUPPORT_TELEMETRY_KEYS_HH
#define AREGION_SUPPORT_TELEMETRY_KEYS_HH

#include "support/telemetry.hh"

// The table's comments are block comments: a line comment would run
// on through the trailing backslash and hide the next row.
#define AREGION_TELEMETRY_KEYS(X)                                           \
    /* --- machine.* (src/hw/machine.cc) ------------------------------- */ \
    /* Abort causes in hw::AbortCause order: the cause register of */       \
    /* the paper's Section 3.2 (kMachineAbortByCause below). */             \
    X(kMachineAbortExplicit, "machine.abort.explicit", Counter)             \
    X(kMachineAbortConflict, "machine.abort.conflict", Counter)             \
    X(kMachineAbortOverflow, "machine.abort.overflow", Counter)             \
    X(kMachineAbortInterrupt, "machine.abort.interrupt", Counter)           \
    X(kMachineAbortException, "machine.abort.exception", Counter)           \
    X(kMachineAbortIo, "machine.abort.io", Counter)                         \
    X(kMachineAbortTotal, "machine.abort.total", Counter)                   \
    X(kMachineRegionEntries, "machine.region.entries", Counter)             \
    X(kMachineRegionCommits, "machine.region.commits", Counter)             \
    X(kMachineRegionUops, "machine.region.uops_retired", Counter)           \
    X(kMachineRegionSize, "machine.region.size_uops", Hist)                 \
    X(kMachineRegionFootprint, "machine.region.footprint_lines", Hist)      \
    X(kMachineRegionReadLines, "machine.region.read_lines", Hist)           \
    X(kMachineRegionWriteLines, "machine.region.write_lines", Hist)         \
    X(kMachineUopsRetired, "machine.uops.retired", Counter)                 \
    X(kMachineUopsExecuted, "machine.uops.executed", Counter)               \
    X(kMachineUopsDiscarded, "machine.uops.discarded", Counter)             \
    X(kMachineUopsAllContexts, "machine.uops.all_contexts", Counter)        \
    X(kMachineMonitorFastEnters, "machine.monitor.fast_enters", Counter)    \
    X(kMachineRuns, "machine.runs", Counter)                                \
    /* Trace batching: uops delivered through TraceSink::uopBatch and */    \
    /* the flushes that carried them. */                                    \
    X(kMachineBatchFlushes, "machine.batch.flushes", Counter)               \
    X(kMachineBatchUops, "machine.batch.uops", Counter)                     \
    /* Fault injection (support/failpoint.hh hooks) and the livelock */     \
    /* guard's suppressed entries. Zero unless failpoints are armed or */   \
    /* HwConfig::maxConsecutiveAborts is set. */                            \
    X(kMachineInjectInterrupt, "machine.inject.interrupt", Counter)         \
    X(kMachineInjectCapacity, "machine.inject.capacity", Counter)           \
    X(kMachineInjectAssert, "machine.inject.assert", Counter)               \
    X(kMachineInjectConflict, "machine.inject.conflict", Counter)           \
    X(kMachineInjectCommitStall, "machine.inject.commit_stall", Counter)    \
    X(kMachineInjectTotal, "machine.inject.total", Counter)                 \
    X(kMachineSpecSuppressed, "machine.region.spec_suppressed", Counter)    \
    X(kMachineLivelockTrips, "machine.region.livelock_trips", Counter)      \
    /* Negative self-test (the failpoint name doubles as the key): a */     \
    /* planted bug the bisimulation oracle must detect. */                  \
    X(kOracleInjectDivergence, "oracle.inject.divergence", Counter)         \
    /* --- oracle.bisim.* (src/hw/bisim.cc via machine.cc) ------------- */ \
    /* Registered only while a BisimOracle is attached. */                  \
    X(kOracleBisimChecks, "oracle.bisim.checks", Counter)                   \
    X(kOracleBisimReplays, "oracle.bisim.replays", Counter)                 \
    X(kOracleBisimUops, "oracle.bisim.uops", Counter)                       \
    X(kOracleBisimDivergences, "oracle.bisim.divergences", Counter)         \
    /* --- driver.* (src/support/parallel.cc) -------------------------- */ \
    X(kDriverTasks, "driver.tasks", Counter)                                \
    X(kDriverWallUs, "driver.wall_us", Counter)                             \
    X(kDriverThreads, "driver.threads", Gauge)                              \
    /* --- timing.* (src/hw/timing.cc) --------------------------------- */ \
    X(kTimingCycles, "timing.cycles", Counter)                              \
    X(kTimingUops, "timing.uops", Counter)                                  \
    X(kTimingIpc, "timing.ipc", Gauge)                                      \
    X(kTimingBranches, "timing.branches", Counter)                          \
    X(kTimingMispredicts, "timing.mispredicts", Counter)                    \
    X(kTimingIndirectMispredicts, "timing.indirect_mispredicts", Counter)   \
    X(kTimingSerializations, "timing.serializations", Counter)              \
    X(kTimingRegionBegins, "timing.region_begins", Counter)                 \
    X(kTimingAbortFlushes, "timing.abort_flushes", Counter)                 \
    X(kTimingL1Misses, "timing.l1_misses", Counter)                         \
    X(kTimingL2Misses, "timing.l2_misses", Counter)                         \
    /* Dispatch-stall attribution: delayed uops by their dominant gate. */  \
    X(kTimingStallRob, "timing.stall.rob", Counter)                         \
    X(kTimingStallSched, "timing.stall.sched_window", Counter)              \
    X(kTimingStallFetch, "timing.stall.fetch_redirect", Counter)            \
    X(kTimingStallSerial, "timing.stall.serialization", Counter)            \
    X(kTimingStallRegion, "timing.stall.region_begin", Counter)             \
    /* --- jit.* (src/runtime/jit.cc, src/opt/pass.cc) ----------------- */ \
    X(kJitRuns, "jit.runs", Counter)                                        \
    X(kJitRecompiles, "jit.recompiles", Counter)                            \
    X(kJitProfileUs, "jit.profile_us", Counter)                             \
    X(kJitCompileUs, "jit.compile_us", Counter)                             \
    X(kJitMachineUs, "jit.machine_us", Counter)                             \
    /* Experiment-store hits: profiles and compiles served from memory. */  \
    X(kJitStoreProfileHits, "jit.store.profile_hits", Counter)              \
    X(kJitStoreCompileHits, "jit.store.compile_hits", Counter)              \
    /* Cumulative per-pass optimizer time (pass schema v2, SSA). */         \
    X(kJitPassSsaUs, "jit.pass.ssa_us", Counter)                            \
    X(kJitPassSimplifyCfgUs, "jit.pass.simplify_cfg_us", Counter)           \
    X(kJitPassSccpUs, "jit.pass.sccp_us", Counter)                          \
    X(kJitPassGvnUs, "jit.pass.gvn_us", Counter)                            \
    X(kJitPassDceUs, "jit.pass.dce_us", Counter)                            \
    X(kJitPassInlineUs, "jit.pass.inline_us", Counter)                      \
    X(kJitPassUnrollUs, "jit.pass.unroll_us", Counter)                      \
    /* --- runtime.resilience.* (src/runtime/resilience.cc) ------------ */ \
    /* The contention governor. */                                          \
    X(kResilienceBackoffSteps, "runtime.resilience.backoff_steps", Counter) \
    X(kResilienceStarvationBoosts,                                          \
      "runtime.resilience.starvation_boosts", Counter)                      \
    X(kResilienceLivelockBreaks,                                            \
      "runtime.resilience.livelock_breaks", Counter)                        \
    /* --- region.* (src/core/region_formation.cc) --------------------- */ \
    X(kRegionFormed, "region.formed", Counter)                              \
    X(kRegionAssertsConverted, "region.asserts_converted", Counter)         \
    X(kRegionBlocksReplicated, "region.blocks_replicated", Counter)         \
    X(kRegionExits, "region.exits", Counter)                                \
    X(kRegionUnrolled, "region.unrolled", Counter)                          \
    /* --- fuzz.* (src/testing/, tools/fuzz_diff.cc) ------------------- */ \
    X(kFuzzSeeds, "fuzz.seeds", Counter)                                    \
    X(kFuzzSkipped, "fuzz.skipped", Counter)                                \
    X(kFuzzTrapped, "fuzz.trapped", Counter)                                \
    X(kFuzzThreaded, "fuzz.threaded", Counter)                              \
    X(kFuzzExecutorRuns, "fuzz.executor_runs", Counter)                     \
    X(kFuzzPrefixes, "fuzz.prefixes", Counter)                              \
    X(kFuzzDivergences, "fuzz.divergences", Counter)                        \
    X(kFuzzMinimized, "fuzz.minimized", Counter)                            \
    X(kFuzzMinimizerCalls, "fuzz.minimizer.predicate_calls", Counter)       \
    X(kFuzzMainBytecodes, "fuzz.main_bytecodes", Hist)                      \
    /* --- contention.* (src/workloads/contention/) -------------------- */ \
    X(kContentionCells, "contention.cells", Counter)                        \
    X(kContentionOracleChecks, "contention.oracle_checks", Counter)         \
    X(kContentionDivergences, "contention.divergences", Counter)            \
    /* --- profile.* (src/vm/profile.cc) ------------------------------- */ \
    X(kProfileMethods, "profile.methods", Counter)                          \
    X(kProfileBytecodes, "profile.bytecodes", Counter)                      \
    X(kProfileBranchSites, "profile.branch_sites", Counter)                 \
    X(kProfileCallSites, "profile.call_sites", Counter)                     \
    X(kProfileInvocations, "profile.invocations", Counter)

namespace aregion::telemetry::keys {

#define AREGION_KEY_CONSTANT(constant, key, kind) \
    inline constexpr const char *constant = key;
AREGION_TELEMETRY_KEYS(AREGION_KEY_CONSTANT)
#undef AREGION_KEY_CONSTANT

/** The abort-cause counters indexed by hw::AbortCause. */
inline constexpr const char *kMachineAbortByCause[6] = {
    kMachineAbortExplicit,  kMachineAbortConflict,
    kMachineAbortOverflow,  kMachineAbortInterrupt,
    kMachineAbortException, kMachineAbortIo,
};

/** Value kind of a catalogued key (TELEMETRY.md writes C, G, H). */
enum class KeyKind { Counter, Gauge, Hist };

struct KeyInfo
{
    const char *constant;   ///< the constant's name, e.g. "kJitRuns"
    const char *key;
    KeyKind kind;
};

/** Every row of the table, in table order. */
inline constexpr KeyInfo kCatalog[] = {
#define AREGION_KEY_INFO(constant, key, kind) \
    {#constant, key, KeyKind::kind},
    AREGION_TELEMETRY_KEYS(AREGION_KEY_INFO)
#undef AREGION_KEY_INFO
};

/** Register the full schema at zero so every export carries the
 *  same key set regardless of which subsystems a binary exercised
 *  (the bench harness calls this at startup). */
inline void
preregister(Registry &reg)
{
    for (const KeyInfo &info : kCatalog) {
        switch (info.kind) {
          case KeyKind::Counter: reg.counter(info.key); break;
          case KeyKind::Gauge: reg.set(info.key, 0.0); break;
          case KeyKind::Hist: reg.histogram(info.key); break;
        }
    }
}

} // namespace aregion::telemetry::keys

#endif // AREGION_SUPPORT_TELEMETRY_KEYS_HH
