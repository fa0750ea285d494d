/**
 * @file
 * Contention torture workloads and their harness.
 *
 * The DaCapo-analog suite (workloads/workload.hh) is single-context
 * on purpose — the paper's figures measure one benchmark thread — so
 * `machine.abort.conflict` stays at zero across every figure. This
 * subsystem exists to make conflict aborts *real*: three genuinely
 * shared-heap workloads whose worker contexts hammer the same cache
 * lines through speculatively-elided monitors (paper Section 5.2),
 * parameterized over 2–32 hardware contexts.
 *
 * Every workload prints only interleaving-invariant values (counts
 * and sums), so one interpreter run is a semantic oracle for any
 * machine schedule, and the cross-context rollback oracle
 * (hw/oracle.hh) audits global heap consistency and commit-order
 * serializability while the regions fight.
 */

#ifndef AREGION_WORKLOADS_CONTENTION_CONTENTION_HH
#define AREGION_WORKLOADS_CONTENTION_CONTENTION_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/resilience.hh"
#include "vm/program.hh"

namespace aregion::workloads::contention {

/** One shared-heap workload, parameterized by worker count. */
struct ContentionWorkload
{
    std::string name;
    std::string description;

    /**
     * Build the program: `contexts` spawned workers plus the main
     * (coordinator) context; profile_variant shrinks the iteration
     * counts for the profiling run.
     */
    std::function<vm::Program(int contexts, bool profile_variant)>
        build;
};

/** Striped counters / lock-striped hash table / MPMC ring queue. */
const std::vector<ContentionWorkload> &contentionSuite();

/** Lookup by name; panics when unknown. */
const ContentionWorkload &
contentionWorkloadByName(const std::string &name);

/** Factories (registry building blocks and tests). */
ContentionWorkload makeStripedCounters();
ContentionWorkload makeStripedHashTable();
ContentionWorkload makeMpmcQueue();

/** One grid cell's configuration. */
struct ContentionRunConfig
{
    int contexts = 4;               ///< spawned workers (2..32)
    uint64_t seed = 0;              ///< governor jitter / replay id
    static constexpr uint64_t heapWords = 1ull << 22;

    /**
     * Scheduler quantum. A small prime forces context switches in
     * the middle of open regions, so speculative footprints overlap
     * in time and ownership races actually happen; the default
     * quantum (50) lets short regions serialize accidentally.
     */
    static constexpr uint64_t quantum = 13;

    static constexpr uint64_t machineMaxUops = 1ull << 30;

    /** The ContentionGovernor's backoff/fairness/livelock policy
     *  (the governor and the rollback oracle are always attached). */
    runtime::ContentionPolicy policy;

    /** Attach the deopt bisimulation oracle (hw/bisim.hh): every
     *  abort — including conflict aborts between fighting contexts —
     *  is replayed non-speculatively from its checkpoint and must
     *  reach the state the hardware left behind. */
    bool bisim = true;
};

/** Everything one cell reports. */
struct CellResult
{
    std::string workload;
    int contexts = 0;
    uint64_t seed = 0;

    bool completed = false;
    bool outputMatches = false;     ///< machine == interpreter

    uint64_t regionEntries = 0;
    uint64_t regionCommits = 0;
    uint64_t totalAborts = 0;
    uint64_t conflictAborts = 0;    ///< genuine + injected
    uint64_t injectedConflicts = 0;
    uint64_t injectedCommitStalls = 0;
    uint64_t allContextUops = 0;

    uint64_t backoffSteps = 0;
    uint64_t starvationBoosts = 0;
    uint64_t livelockBreaks = 0;

    uint64_t oracleCommitChecks = 0;
    uint64_t oracleConflictHeapChecks = 0;
    uint64_t bisimChecks = 0;           ///< aborts bisim-replayed
    uint64_t bisimReplayedUops = 0;

    /** Oracle divergences + differential mismatches, already
     *  stamped with seed/ctx/replay coordinates. */
    std::vector<std::string> problems;
};

/**
 * Run one cell: profile, compile (atomic + SLE), and execute the
 * workload on `contexts + 1` hardware contexts with the oracle and
 * governor attached, then differentially compare the output against
 * the reference interpreter. Does not arm failpoints: whatever is
 * armed process-wide (e.g. machine.conflict) applies, and the cell's
 * replay command names it.
 */
CellResult runContentionCell(const ContentionWorkload &workload,
                             const ContentionRunConfig &cfg);

/** A (workload, contexts, seed) grid point. */
struct GridCell
{
    const ContentionWorkload *workload;
    ContentionRunConfig cfg;
};

/**
 * Run a grid of cells via parallel::runGrid (results in cell order,
 * independent of completion order) and publish `contention.*`
 * telemetry. Failpoint arming is grid-scoped, not cell-scoped — arm
 * before calling, disarm after — because the registry is
 * process-global and arming mid-grid would race firesAt().
 */
std::vector<CellResult> runContentionGrid(
    const std::vector<GridCell> &cells);

/** The canonical one-line replay command for a cell (what the
 *  oracle stamps into its failure messages). When @p injected, it
 *  starts with the armed failpoint set and seed as the
 *  AREGION_FAILPOINTS and AREGION_FAILPOINT_SEED assignments, so the
 *  replay runs under the same injection. */
std::string replayCommand(const std::string &workload, int contexts,
                          uint64_t seed, bool injected);

} // namespace aregion::workloads::contention

#endif // AREGION_WORKLOADS_CONTENTION_CONTENTION_HH
