/**
 * @file
 * The canonical catalog of telemetry keys.
 *
 * Every counter/gauge/histogram key registered anywhere in the
 * source MUST be listed here, and every key listed here MUST be
 * documented in docs/TELEMETRY.md. Both directions are enforced:
 *
 *  - tools/verify_docs.cc (the `verify_docs` ctest) checks that
 *    docs/TELEMETRY.md mentions every catalog key;
 *  - tests/support_telemetry_test.cc runs a full experiment and
 *    checks that every key registered at runtime is in the catalog.
 *
 * Instrumentation sites reference these constants instead of
 * repeating string literals, so a typo becomes a compile error and
 * a new key without a catalog entry fails the runtime check.
 */

#ifndef AREGION_SUPPORT_TELEMETRY_KEYS_HH
#define AREGION_SUPPORT_TELEMETRY_KEYS_HH

#include <string>
#include <vector>

#include "support/telemetry.hh"

namespace aregion::telemetry::keys {

// --- machine.* (src/hw/machine.cc) -------------------------------
// Abort-cause counters mirror hw::AbortCause order (the cause
// register of the paper's Section 3.2).
inline constexpr const char *kMachineAbortByCause[6] = {
    "machine.abort.explicit",  "machine.abort.conflict",
    "machine.abort.overflow",  "machine.abort.interrupt",
    "machine.abort.exception", "machine.abort.io",
};
inline constexpr const char *kMachineAbortTotal = "machine.abort.total";
inline constexpr const char *kMachineRegionEntries =
    "machine.region.entries";
inline constexpr const char *kMachineRegionCommits =
    "machine.region.commits";
inline constexpr const char *kMachineRegionUops =
    "machine.region.uops_retired";
inline constexpr const char *kMachineRegionSize =
    "machine.region.size_uops";            // histogram
inline constexpr const char *kMachineRegionFootprint =
    "machine.region.footprint_lines";      // histogram
inline constexpr const char *kMachineRegionReadLines =
    "machine.region.read_lines";           // histogram
inline constexpr const char *kMachineRegionWriteLines =
    "machine.region.write_lines";          // histogram
inline constexpr const char *kMachineUopsRetired =
    "machine.uops.retired";
inline constexpr const char *kMachineUopsExecuted =
    "machine.uops.executed";
inline constexpr const char *kMachineUopsDiscarded =
    "machine.uops.discarded";
inline constexpr const char *kMachineUopsAllContexts =
    "machine.uops.all_contexts";
inline constexpr const char *kMachineMonitorFastEnters =
    "machine.monitor.fast_enters";
inline constexpr const char *kMachineRuns = "machine.runs";
// Trace-batching stats: uops delivered to the sink through
// TraceSink::uopBatch and how many batch flushes carried them.
inline constexpr const char *kMachineBatchFlushes =
    "machine.batch.flushes";
inline constexpr const char *kMachineBatchUops =
    "machine.batch.uops";
// Fault-injection counters (support/failpoint.hh hooks): aborts and
// capacity squeezes forced into the machine, plus the livelock
// guard's suppressed region entries. Zero unless failpoints are
// armed / HwConfig::maxConsecutiveAborts is set.
inline constexpr const char *kMachineInjectInterrupt =
    "machine.inject.interrupt";
inline constexpr const char *kMachineInjectCapacity =
    "machine.inject.capacity";
inline constexpr const char *kMachineInjectAssert =
    "machine.inject.assert";
inline constexpr const char *kMachineInjectConflict =
    "machine.inject.conflict";
inline constexpr const char *kMachineInjectCommitStall =
    "machine.inject.commit_stall";
inline constexpr const char *kMachineInjectTotal =
    "machine.inject.total";
inline constexpr const char *kMachineSpecSuppressed =
    "machine.region.spec_suppressed";
inline constexpr const char *kMachineLivelockTrips =
    "machine.region.livelock_trips";
// Negative-self-test injectors (failpoint names double as keys):
// planted rollback bugs / aborted-work traces the bisimulation
// oracle and leakage observer must detect.
inline constexpr const char *kOracleInjectDivergence =
    "oracle.inject.divergence";
inline constexpr const char *kMachineInjectLeak =
    "machine.inject.leak";

// --- oracle.bisim.* (src/hw/bisim.cc via machine.cc) -------------
// Deopt bisimulation oracle: aborts checked by non-speculative
// replay from the aregion_begin checkpoint, replays run (two per
// check), uops those replays executed, and observable divergences
// found (reported + suppressed). Registered only while a
// BisimOracle is attached.
inline constexpr const char *kOracleBisimChecks =
    "oracle.bisim.checks";
inline constexpr const char *kOracleBisimReplays =
    "oracle.bisim.replays";
inline constexpr const char *kOracleBisimUops =
    "oracle.bisim.uops";
inline constexpr const char *kOracleBisimDivergences =
    "oracle.bisim.divergences";

// --- driver.* (src/support/parallel.cc) --------------------------
inline constexpr const char *kDriverTasks = "driver.tasks";
inline constexpr const char *kDriverWallUs = "driver.wall_us";
inline constexpr const char *kDriverThreads =
    "driver.threads";                       // gauge

// --- timing.* (src/hw/timing.cc) ---------------------------------
inline constexpr const char *kTimingCycles = "timing.cycles";
inline constexpr const char *kTimingUops = "timing.uops";
inline constexpr const char *kTimingIpc = "timing.ipc";     // gauge
inline constexpr const char *kTimingBranches = "timing.branches";
inline constexpr const char *kTimingMispredicts =
    "timing.mispredicts";
inline constexpr const char *kTimingIndirectMispredicts =
    "timing.indirect_mispredicts";
inline constexpr const char *kTimingSerializations =
    "timing.serializations";
inline constexpr const char *kTimingRegionBegins =
    "timing.region_begins";
inline constexpr const char *kTimingAbortFlushes =
    "timing.abort_flushes";
inline constexpr const char *kTimingL1Misses = "timing.l1_misses";
inline constexpr const char *kTimingL2Misses = "timing.l2_misses";
// Dispatch-stall attribution: uops whose dispatch was delayed,
// bucketed by the dominant gate.
inline constexpr const char *kTimingStallRob = "timing.stall.rob";
inline constexpr const char *kTimingStallSched =
    "timing.stall.sched_window";
inline constexpr const char *kTimingStallFetch =
    "timing.stall.fetch_redirect";
inline constexpr const char *kTimingStallSerial =
    "timing.stall.serialization";
inline constexpr const char *kTimingStallRegion =
    "timing.stall.region_begin";
// Forced branch mispredicts (timing.mispredict failpoint).
inline constexpr const char *kTimingInjectMispredict =
    "timing.inject.mispredict";
// Leakage observer (TimingConfig::leakObserver): regions whose
// aborted attempts were audited, regions flagged for leaving
// input-dependent microarchitectural traces, and the leaked
// cache-line / branch-predictor-entry counts. Registered only when
// the observer mode is on.
inline constexpr const char *kTimingLeakRegions =
    "timing.leak.regions";
inline constexpr const char *kTimingLeakFlagged =
    "timing.leak.flagged";
inline constexpr const char *kTimingLeakLines =
    "timing.leak.lines";
inline constexpr const char *kTimingLeakBranches =
    "timing.leak.branches";

// --- jit.* (src/runtime/jit.cc, src/opt/pass.cc) -----------------
inline constexpr const char *kJitRuns = "jit.runs";
inline constexpr const char *kJitRecompiles = "jit.recompiles";
inline constexpr const char *kJitProfileUs = "jit.profile_us";
inline constexpr const char *kJitCompileUs = "jit.compile_us";
inline constexpr const char *kJitMachineUs = "jit.machine_us";
// Experiment-store hits (src/runtime/jit.cc): runs whose profile or
// compile came from the store instead of the interpreter or
// compileProgram. Base: jit.runs (one profile and one compile lookup
// per run, plus one compile lookup per jit.recompiles).
inline constexpr const char *kJitStoreProfileHits =
    "jit.store.profile_hits";
inline constexpr const char *kJitStoreCompileHits =
    "jit.store.compile_hits";
// Cumulative per-pass optimizer time (opt/pass.cc pipelines).
// Schema v2 (SSA pipeline): constant_fold/copy_prop became sccp_us,
// cse became gvn_us, and ssa_us covers SSA build + destroy.
inline constexpr const char *kJitPassSsaUs = "jit.pass.ssa_us";
inline constexpr const char *kJitPassSimplifyCfgUs =
    "jit.pass.simplify_cfg_us";
inline constexpr const char *kJitPassSccpUs = "jit.pass.sccp_us";
inline constexpr const char *kJitPassGvnUs = "jit.pass.gvn_us";
inline constexpr const char *kJitPassDceUs = "jit.pass.dce_us";
inline constexpr const char *kJitPassInlineUs =
    "jit.pass.inline_us";
inline constexpr const char *kJitPassUnrollUs =
    "jit.pass.unroll_us";

// --- runtime.resilience.* (src/runtime/resilience.cc) ------------
// Abort-storm handling: storms detected, bounded recompiles spent on
// them, recompiles skipped while backing off, and regions given up
// on (permanently non-speculative).
inline constexpr const char *kResilienceStorms =
    "runtime.resilience.storms";
inline constexpr const char *kResilienceRecompiles =
    "runtime.resilience.recompiles";
inline constexpr const char *kResilienceBackoffs =
    "runtime.resilience.backoffs";
inline constexpr const char *kResilienceBlacklisted =
    "runtime.resilience.blacklisted";
// Contention governor (hw::ContentionControl implementation):
// scheduler steps spent in per-context backoff, starving contexts
// granted backoff immunity, and mutual-abort livelocks broken by
// staggering.
inline constexpr const char *kResilienceBackoffSteps =
    "runtime.resilience.backoff_steps";
inline constexpr const char *kResilienceStarvationBoosts =
    "runtime.resilience.starvation_boosts";
inline constexpr const char *kResilienceLivelockBreaks =
    "runtime.resilience.livelock_breaks";

// --- region.* (src/core/region_formation.cc) ---------------------
inline constexpr const char *kRegionFormed = "region.formed";
inline constexpr const char *kRegionAssertsConverted =
    "region.asserts_converted";
inline constexpr const char *kRegionBlocksReplicated =
    "region.blocks_replicated";
inline constexpr const char *kRegionExits = "region.exits";
inline constexpr const char *kRegionUnrolled = "region.unrolled";

// --- fuzz.* (src/testing/, tools/fuzz_diff.cc) -------------------
// Differential-fuzzing campaign counters: seeds executed, seeds
// skipped (budget), executor runs and pipeline prefixes compared,
// divergences observed, minimizer shrink work, and the size of the
// rendered main method per seed.
inline constexpr const char *kFuzzSeeds = "fuzz.seeds";
inline constexpr const char *kFuzzSkipped = "fuzz.skipped";
inline constexpr const char *kFuzzTrapped = "fuzz.trapped";
inline constexpr const char *kFuzzThreaded = "fuzz.threaded";
inline constexpr const char *kFuzzExecutorRuns =
    "fuzz.executor_runs";
inline constexpr const char *kFuzzPrefixes = "fuzz.prefixes";
inline constexpr const char *kFuzzDivergences = "fuzz.divergences";
inline constexpr const char *kFuzzMinimized = "fuzz.minimized";
inline constexpr const char *kFuzzMinimizerCalls =
    "fuzz.minimizer.predicate_calls";
inline constexpr const char *kFuzzMainBytecodes =
    "fuzz.main_bytecodes";                 // histogram

// --- contention.* (src/workloads/contention/) --------------------
// Contention torture harness: grid cells executed, cross-context
// oracle checks performed (commit serializability validations plus
// conflict-abort heap audits), and divergences those checks found.
inline constexpr const char *kContentionCells = "contention.cells";
inline constexpr const char *kContentionOracleChecks =
    "contention.oracle_checks";
inline constexpr const char *kContentionDivergences =
    "contention.divergences";

// --- profile.* (src/vm/profile.cc) -------------------------------
inline constexpr const char *kProfileMethods = "profile.methods";
inline constexpr const char *kProfileBytecodes =
    "profile.bytecodes";
inline constexpr const char *kProfileBranchSites =
    "profile.branch_sites";
inline constexpr const char *kProfileCallSites =
    "profile.call_sites";
inline constexpr const char *kProfileInvocations =
    "profile.invocations";

/** Value kind of a catalogued key. */
enum class KeyKind { Counter, Gauge, Hist };

struct KeyInfo
{
    const char *key;
    KeyKind kind;
};

/** Every key above with its kind, for the docs-coverage checks and
 *  schema pre-registration. */
inline std::vector<KeyInfo>
catalogInfo()
{
    std::vector<KeyInfo> all;
    for (const char *k : kMachineAbortByCause)
        all.push_back({k, KeyKind::Counter});
    for (const char *k :
         {kMachineAbortTotal, kMachineRegionEntries,
          kMachineRegionCommits, kMachineRegionUops,
          kMachineUopsRetired, kMachineUopsExecuted,
          kMachineUopsDiscarded, kMachineUopsAllContexts,
          kMachineMonitorFastEnters, kMachineRuns,
          kMachineBatchFlushes, kMachineBatchUops,
          kMachineInjectInterrupt, kMachineInjectCapacity,
          kMachineInjectAssert, kMachineInjectConflict,
          kMachineInjectCommitStall, kMachineInjectTotal,
          kMachineSpecSuppressed, kMachineLivelockTrips,
          kOracleInjectDivergence, kMachineInjectLeak,
          kOracleBisimChecks, kOracleBisimReplays, kOracleBisimUops,
          kOracleBisimDivergences, kDriverTasks,
          kDriverWallUs, kTimingCycles,
          kTimingUops, kTimingBranches, kTimingMispredicts,
          kTimingIndirectMispredicts, kTimingSerializations,
          kTimingRegionBegins, kTimingAbortFlushes, kTimingL1Misses,
          kTimingL2Misses, kTimingStallRob, kTimingStallSched,
          kTimingStallFetch, kTimingStallSerial, kTimingStallRegion,
          kTimingInjectMispredict, kTimingLeakRegions,
          kTimingLeakFlagged, kTimingLeakLines, kTimingLeakBranches,
          kJitRuns, kJitRecompiles, kJitProfileUs, kJitCompileUs,
          kJitMachineUs, kJitStoreProfileHits, kJitStoreCompileHits,
          kJitPassSsaUs, kJitPassSimplifyCfgUs,
          kJitPassSccpUs, kJitPassGvnUs,
          kJitPassDceUs, kJitPassInlineUs, kJitPassUnrollUs,
          kResilienceStorms, kResilienceRecompiles,
          kResilienceBackoffs, kResilienceBlacklisted,
          kResilienceBackoffSteps, kResilienceStarvationBoosts,
          kResilienceLivelockBreaks,
          kContentionCells, kContentionOracleChecks,
          kContentionDivergences,
          kRegionFormed, kRegionAssertsConverted,
          kRegionBlocksReplicated, kRegionExits, kRegionUnrolled,
          kFuzzSeeds, kFuzzSkipped, kFuzzTrapped, kFuzzThreaded,
          kFuzzExecutorRuns, kFuzzPrefixes, kFuzzDivergences,
          kFuzzMinimized, kFuzzMinimizerCalls,
          kProfileMethods, kProfileBytecodes, kProfileBranchSites,
          kProfileCallSites, kProfileInvocations}) {
        all.push_back({k, KeyKind::Counter});
    }
    all.push_back({kTimingIpc, KeyKind::Gauge});
    all.push_back({kDriverThreads, KeyKind::Gauge});
    for (const char *k :
         {kMachineRegionSize, kMachineRegionFootprint,
          kMachineRegionReadLines, kMachineRegionWriteLines,
          kFuzzMainBytecodes}) {
        all.push_back({k, KeyKind::Hist});
    }
    return all;
}

/** Catalogued key names only. */
inline std::vector<std::string>
catalog()
{
    std::vector<std::string> names;
    for (const KeyInfo &info : catalogInfo())
        names.push_back(info.key);
    return names;
}

/** Register the full schema at zero so every export carries the
 *  same key set regardless of which subsystems a binary exercised
 *  (the bench harness calls this at startup). */
inline void
preregister(Registry &reg)
{
    for (const KeyInfo &info : catalogInfo()) {
        switch (info.kind) {
          case KeyKind::Counter: reg.counter(info.key); break;
          case KeyKind::Gauge: reg.set(info.key, 0.0); break;
          case KeyKind::Hist: reg.histogram(info.key); break;
        }
    }
}

} // namespace aregion::telemetry::keys

#endif // AREGION_SUPPORT_TELEMETRY_KEYS_HH
