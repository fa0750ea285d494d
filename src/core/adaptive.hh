/**
 * @file
 * Adaptive recompilation policy (paper Section 7).
 *
 * The hardware reports the program counter of the instruction
 * responsible for each abort; the runtime maps that back (through
 * RegionInfo::abortOrigins) to the cold branch whose profile
 * changed. When a region's abort rate exceeds a threshold, the
 * controller emits warm-override sites so recompilation keeps those
 * paths as real branches instead of asserts.
 */

#ifndef AREGION_CORE_ADAPTIVE_HH
#define AREGION_CORE_ADAPTIVE_HH

#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "ir/ir.hh"

namespace aregion::core {

/** Runtime telemetry for one static region of one function. */
struct RegionTelemetry
{
    uint64_t entries = 0;
    uint64_t commits = 0;
    /** Abort counts keyed by abort id (explicit asserts) and by
     *  cause for implicit aborts. */
    std::map<int, uint64_t> abortsByAssert;
    uint64_t implicitAborts = 0;    ///< overflow/interrupt/conflict
};

/** Telemetry across a run: (methodId, regionId) -> stats. */
using AbortTelemetry =
    std::map<std::pair<int, int>, RegionTelemetry>;

/** Policy knobs and the override computation. */
class AdaptiveController
{
  public:
    /** Abort rate above which a region must be recompiled (the
     *  paper: "even a few percent" hurts). */
    double abortRateThreshold = 0.01;

    /** Regions with fewer entries than this are left alone. */
    uint64_t minEntries = 64;

    /**
     * Warm-override sites — (bcMethod, bcPc) of the cold branches
     * whose asserts dominate the abort profile of misbehaving
     * regions. Feed into RegionConfig::warmOverrides and recompile.
     */
    std::set<std::pair<int, int>>
    computeOverrides(const ir::Module &mod,
                     const AbortTelemetry &telemetry) const;

    bool operator==(const AdaptiveController &) const = default;
};

} // namespace aregion::core

#endif // AREGION_CORE_ADAPTIVE_HH
