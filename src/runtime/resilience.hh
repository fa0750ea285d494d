/**
 * @file
 * Abort-storm detection for the recompilation loop, and the
 * contention governor.
 *
 * The paper's Section 7 controller assumes profile drift: a cold
 * edge turned warm, the assert fires, and one recompile with warm
 * overrides repairs the region. Under fault injection (or a genuine
 * environment shift) a region can abort persistently with *no*
 * attributable assert site, and the controller has nothing to
 * override. Under a ResiliencePolicy, runExperiment's recompilation
 * loop (runtime/jit.cc) also acts on such regions:
 *
 *   - storm detection: a region whose abort rate is at least
 *     ResiliencePolicy::stormAbortRate across at least minEntries
 *     entries is storming (stormingRegions);
 *   - blacklisting: when the controller finds no new override site,
 *     the storming regions' methods are compiled permanently
 *     non-speculative (RegionConfig::blacklistMethods), so the
 *     program keeps making progress;
 *   - a budget: the loop spends at most maxRecompiles recompiles.
 *
 * The machine's own livelock guard is HwConfig::maxConsecutiveAborts.
 * Everything is off by default (enabled = false): the benchmarks'
 * figures are byte-identical with the policy left alone. Telemetry
 * lands under `runtime.resilience.*` (docs/TELEMETRY.md).
 */

#ifndef AREGION_RUNTIME_RESILIENCE_HH
#define AREGION_RUNTIME_RESILIENCE_HH

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "hw/machine.hh"

namespace aregion::runtime {

/** Policy knobs; defaults are conservative and the whole layer is
 *  opt-in. */
struct ResiliencePolicy
{
    bool enabled = false;

    /** Aborts / entries above which a region counts as storming
     *  (well past the adaptive controller's repair threshold). */
    double stormAbortRate = 0.5;

    /** Regions with fewer entries carry too little evidence. */
    uint64_t minEntries = 16;

    /** Recompiles one experiment run may spend. */
    int maxRecompiles = 3;

    bool operator==(const ResiliencePolicy &) const = default;
};

/** Regions (methodId, regionId) of @p res that storm under @p policy,
 *  excluding those of the @p blacklisted methods. */
std::set<std::pair<int, int>>
stormingRegions(const hw::MachineResult &res,
                const ResiliencePolicy &policy,
                const std::set<int> &blacklisted);

/** Knobs for the contention governor (all deterministic). */
struct ContentionPolicy
{
    /** First-conflict backoff, in scheduler steps; doubles per
     *  consecutive conflict abort on the same context. */
    uint64_t baseStall = 8;

    /** Cap on the exponential growth. */
    uint64_t maxStall = 1024;

    /** Seed for the deterministic jitter mixed into every stall so
     *  symmetric contexts desynchronize instead of re-colliding. */
    uint64_t seed = 0;

    /** Fairness guard: a context that committed nothing while the
     *  machine as a whole committed this many regions is starving
     *  and gets backoff immunity until its next commit. */
    uint64_t fairnessWindow = 64;

    /** Livelock guard: this many conflict aborts machine-wide with
     *  zero intervening commits means the contexts are killing each
     *  other; backoffs switch to id-staggered stalls until any
     *  region commits. */
    uint64_t livelockWindow = 32;
};

/**
 * Contention-aware backoff: the software half of surviving genuine
 * conflict aborts (paper Section 5.2's SLE under contention). The
 * machine consults it after every abort (hw::ContentionControl);
 * conflict aborts draw an exponentially growing, jittered,
 * per-context stall, while a starvation guard exempts contexts that
 * keep losing and a livelock breaker staggers mutually-aborting
 * contexts by id. All decisions are pure functions of the policy
 * seed and the abort/commit history, so runs replay exactly.
 */
class ContentionGovernor : public hw::ContentionControl
{
  public:
    explicit ContentionGovernor(const ContentionPolicy &p)
        : policy(p)
    {}

    uint64_t onAbort(int ctx_id, hw::AbortCause cause) override;
    void onCommit(int ctx_id) override;

    uint64_t backoffSteps() const { return backoffStepsTotal; }
    uint64_t starvationBoosts() const { return starvationCount; }
    uint64_t livelockBreaks() const { return livelockCount; }

    /** Mirror the counters into `runtime.resilience.*`. */
    void publishTelemetry() const;

  private:
    struct CtxState
    {
        uint64_t conflictStreak = 0;
        uint64_t abortDraws = 0;    ///< jitter stream index
        /** Machine-wide commit count at this context's last own
         *  commit (for the starvation window). */
        uint64_t commitsAtOwnCommit = 0;
        bool starving = false;
    };

    CtxState &slot(int ctx_id);

    ContentionPolicy policy;
    std::vector<CtxState> ctxs;
    uint64_t totalCommits = 0;
    uint64_t conflictsSinceCommit = 0;
    bool staggered = false;         ///< livelock breaker engaged
    uint64_t backoffStepsTotal = 0;
    uint64_t starvationCount = 0;
    uint64_t livelockCount = 0;
};

} // namespace aregion::runtime

#endif // AREGION_RUNTIME_RESILIENCE_HH
