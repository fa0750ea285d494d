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

/** Tunables; defaults follow the paper (Section 4). The two
 *  formation bounds are constants: no experiment varies them. */
struct RegionConfig
{
    /** LOOPPATHTHRESHOLD: loops with longer per-entry dynamic paths
     *  get per-iteration regions (paper: 200 HIR ops). */
    double loopPathThreshold = 200;

    /** R, the desired region size in Equation 1 (paper: 200). */
    double targetSize = 200;

    /** Safety bound on blocks replicated per region. */
    static constexpr int maxRegionBlocks = 64;

    /** Minimum replicated instructions worth a region (tiny
     *  regions are pure begin/end overhead). */
    int minRegionInstrs = 10;

    /** Partial loop unrolling: max iterations fused per region. */
    static constexpr int maxUnrollFactor = 4;

    /** Cold edges at these (bcMethod, bcPc) sites are treated as warm
     *  (adaptive recompilation feedback; Section 7). */
    std::set<std::pair<int, int>> warmOverrides;

    /** Tuning that forms regions around 20–40-op bodies (generated
     *  fuzz programs, the contention workloads' critical sections);
     *  the paper's defaults target 200-op traces. */
    static RegionConfig smallBodies();

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

    bool operator==(const RegionStats &) const = default;
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
