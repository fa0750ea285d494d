#include "runtime/resilience.hh"

#include <algorithm>

#include "support/random.hh"

namespace aregion::runtime {

ContentionGovernor::CtxState &
ContentionGovernor::slot(int ctx_id)
{
    const auto idx = static_cast<size_t>(ctx_id);
    if (idx >= ctxs.size())
        ctxs.resize(idx + 1);
    return ctxs[idx];
}

uint64_t
ContentionGovernor::onAbort(int ctx_id, hw::AbortCause cause)
{
    // Only conflicts are contention; a capacity, interrupt or
    // explicit abort recurs whatever the other contexts do, so
    // backing off would only delay its alternate path.
    if (cause != hw::AbortCause::Conflict)
        return 0;

    CtxState &cs = slot(ctx_id);
    cs.conflictStreak++;
    cs.abortDraws++;

    if (++conflictsSinceCommit == policy.livelockWindow && !staggered) {
        // Mutual-abort livelock: everyone keeps killing everyone and
        // nothing commits. Stagger stalls by context id so the
        // lowest id wins the next race outright; any commit clears
        // the mode.
        staggered = true;
        livelockCount++;
    }

    // Starvation guard: a context the rest of the machine has lapped
    // `fairnessWindow` times retries immediately — backing off the
    // perpetual loser only entrenches the unfairness.
    if (totalCommits - cs.commitsAtOwnCommit >= policy.fairnessWindow) {
        if (!cs.starving) {
            cs.starving = true;
            starvationCount++;
        }
        return 0;
    }

    uint64_t stall;
    if (staggered) {
        stall = policy.baseStall * static_cast<uint64_t>(ctx_id);
    } else {
        const uint64_t shift =
            cs.conflictStreak > 0 ? cs.conflictStreak - 1 : 0;
        stall = shift >= 63 ? policy.maxStall
                            : std::min(policy.maxStall,
                                       policy.baseStall << shift);
        // Jitter in [0, stall): symmetric contexts with identical
        // streaks must not re-collide in lockstep.
        if (stall > 0) {
            stall += splitmix64(policy.seed ^
                                (static_cast<uint64_t>(ctx_id) << 32) ^
                                cs.abortDraws) %
                     stall;
        }
    }
    backoffStepsTotal += stall;
    return stall;
}

void
ContentionGovernor::onCommit(int ctx_id)
{
    CtxState &cs = slot(ctx_id);
    totalCommits++;
    cs.conflictStreak = 0;
    cs.commitsAtOwnCommit = totalCommits;
    cs.starving = false;
    conflictsSinceCommit = 0;
    staggered = false;
}

} // namespace aregion::runtime
