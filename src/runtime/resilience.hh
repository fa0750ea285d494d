/**
 * @file
 * The contention governor: the software half of surviving genuine
 * conflict aborts between hardware contexts (docs/RESILIENCE.md).
 */

#ifndef AREGION_RUNTIME_RESILIENCE_HH
#define AREGION_RUNTIME_RESILIENCE_HH

#include <cstdint>
#include <vector>

#include "hw/machine.hh"

namespace aregion::runtime {

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
