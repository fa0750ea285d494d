/**
 * @file
 * Atomic region formation — the paper's primary contribution
 * (Section 4: "Forming and Optimizing Regions").
 *
 * Five-step process:
 *   1. aggressive inlining (performed by the compiler driver; the
 *      partial-inlining criteria live in opt::inlineCalls),
 *   2. boundary selection (Algorithm 1 / Algorithm 2 / Equation 1),
 *   3. hot-path replication into single-entry regions,
 *   4. cold-edge -> Assert conversion,
 *   5. the original blocks remain as the non-speculative version
 *      (reached through each region's abort exception edge).
 *
 * Regions obey the paper's invariants: bounded size (best-effort
 * hardware), no nesting, single entry with arbitrary internal
 * control flow, termination at non-inlined calls and method exits.
 * Per-iteration loop regions are partially unrolled up to the target
 * region size R.
 */

#ifndef AREGION_CORE_REGION_FORMATION_HH
#define AREGION_CORE_REGION_FORMATION_HH

#include <set>
#include <utility>
#include <vector>

#include "ir/ir.hh"
#include "ir/loops.hh"

namespace aregion::core {

/** Tunables; defaults follow the paper (Section 4). */
struct RegionConfig
{
    bool enabled = true;

    /** Branch bias below which a path is cold (paper: 1%). */
    double coldBias = 0.01;

    /** LOOPPATHTHRESHOLD: loops with longer per-entry dynamic paths
     *  get per-iteration regions (paper: 200 HIR ops). */
    double loopPathThreshold = 200;

    /** R, the desired region size in Equation 1 (paper: 200). */
    double targetSize = 200;

    /** Blocks below maxBlockExecCount/100 never seed traces. */
    double hotBlockCutoff = 0.01;

    /** Safety bound on blocks replicated per region. */
    int maxRegionBlocks = 64;

    /** Minimum replicated instructions worth a region (tiny
     *  regions are pure begin/end overhead). */
    int minRegionInstrs = 10;

    /** Partial loop unrolling: max iterations fused per region. */
    int maxUnrollFactor = 4;

    /** Cold edges at these (bcMethod, bcPc) sites are treated as warm
     *  (adaptive recompilation feedback; Section 7). */
    std::set<std::pair<int, int>> warmOverrides;

    /** Methods compiled permanently non-speculative: no regions are
     *  formed for these ids (abort-storm resilience gave up on them;
     *  runtime/resilience.hh). */
    std::set<int> blacklistMethods;

    bool operator==(const RegionConfig &) const = default;
};

/** Formation statistics for reporting and tests. */
struct RegionStats
{
    int regionsFormed = 0;
    int assertsCreated = 0;
    int blocksReplicated = 0;
    int regionExits = 0;
    int unrolledRegions = 0;
};

/** Algorithm 2, LOOPWEIGHT: sum of blockExecCount * numOps. */
double loopWeight(const ir::Function &func, const ir::Loop &loop);

/** Equation 1 cost term for one region of size r, target R. */
double regionSizeCost(double r, double target);

/** Algorithm 2, TRACEDOMINANTPATH: hottest path through seed,
 *  bounded by the given boundary blocks. */
std::vector<int> traceDominantPath(const ir::Function &func, int seed,
                                   const std::set<int> &boundaries);

/** Equation 1, SELECTACYCLICBOUNDARIES: subset of candidate
 *  positions on the path minimizing total size cost. */
std::vector<int> selectAcyclicBoundaries(const ir::Function &func,
                                         const std::vector<int> &path,
                                         const ir::LoopForest &forest,
                                         double target);

/** Algorithm 1, SELECTBOUNDARIES. */
std::set<int> selectBoundaries(const ir::Function &func,
                               const RegionConfig &config);

/** Full region formation (steps 2-5) on an optimized function. */
RegionStats formRegions(ir::Function &func, const RegionConfig &config);

} // namespace aregion::core

#endif // AREGION_CORE_REGION_FORMATION_HH
