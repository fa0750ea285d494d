/**
 * @file
 * Running one cell, two ways.
 *
 * runCell() sends the cell through the public entry point the repo's
 * bench binaries use (runtime::runExperiment,
 * contention::runContentionCell) with no tracing: the timed run.
 * runCellTraced() repeats the same
 * cell by calling each layer's public function in turn, in the order
 * those entry points do, with a span around every call: the traced
 * run. Both return the cell's exact counts, so each traced cell is
 * checked against its untraced twin and any drift between the staged
 * copy and the entry points shows as a mismatch.
 */

#ifndef AREGION_PERFBENCH_EXECUTE_HH
#define AREGION_PERFBENCH_EXECUTE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "suite.hh"

namespace aregion::perfbench {

using Clock = std::chrono::steady_clock;

/** What a cell computed. Every field repeats exactly for a given
 *  cell and governor seed, whichever path or worker ran it. */
struct CellCounts
{
    uint64_t checksum = 0;      ///< machine output (the interpreter's FNV)
    uint64_t simCycles = 0;     ///< timing-model cycles; 0 on contention
    uint64_t uops = 0;          ///< executed uops, all contexts
    uint64_t regionCommits = 0;
    uint64_t totalAborts = 0;
    uint64_t bisimChecks = 0;
    uint64_t backoffSteps = 0;
    bool recompiled = false;

    bool operator==(const CellCounts &) const = default;
};

struct CellOutcome
{
    CellCounts counts;
    std::string problem;        ///< empty when every check passed
};

/** The timed path. Never throws: an exception becomes the problem. */
CellOutcome runCell(const Suite &suite, const Cell &cell,
                    uint64_t governor_seed);

/** One span of the traced run; times are ns since the run's epoch. */
struct Span
{
    const char *name;
    uint32_t cell;              ///< traced cell id
    int32_t parent;             ///< index into the cell's spans; -1: root
    int64_t startNs;
    int64_t endNs;
};

/** Per-layer work of traced cells: host seconds and exact counts. */
struct LayerTotals
{
    double cellS = 0;           ///< whole traced cells
    double buildS = 0;          ///< contention: building the programs
    double profileS = 0;        ///< profiling interpreter
    double refS = 0;            ///< contention: in-cell reference run
    double compileS = 0;
    double lowerS = 0;
    double machineS = 0;        ///< machine span, timing sink included
    double timingS = 0;         ///< inside the timing model

    uint64_t cells = 0;
    uint64_t bytecodes = 0;     ///< interpreted by in-cell runs
    uint64_t compiles = 0;
    uint64_t irInstrs = 0;
    uint64_t regions = 0;
    uint64_t staticUops = 0;
    uint64_t uops = 0;
    uint64_t discardedUops = 0;
    uint64_t timedUops = 0;     ///< delivered to the timing model
    uint64_t regionEntries = 0;
    uint64_t regionCommits = 0;
    uint64_t oracleChecks = 0;
    uint64_t bisimUops = 0;
    uint64_t simCycles = 0;
    uint64_t recompiles = 0;
    uint64_t backoffSteps = 0;

    void add(const LayerTotals &other);

    /** The exact counts by metric name, for reporting and for
     *  comparing runs. */
    std::vector<std::pair<const char *, uint64_t>> exactCounts() const;
};

/**
 * The traced path: each stage of the cell's entry point called in
 * turn, appending its spans to `spans` and its work to `totals`.
 * Never throws: an exception becomes the problem.
 */
CellOutcome runCellTraced(const Suite &suite, const Cell &cell,
                          uint64_t governor_seed, Clock::time_point epoch,
                          uint32_t cell_id, std::vector<Span> &spans,
                          LayerTotals &totals);

} // namespace aregion::perfbench

#endif // AREGION_PERFBENCH_EXECUTE_HH
