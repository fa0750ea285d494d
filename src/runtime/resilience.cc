#include "runtime/resilience.hh"

#include <algorithm>

#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"

namespace aregion::runtime {

std::set<std::pair<int, int>>
stormingRegions(const hw::MachineResult &res,
                const ResiliencePolicy &policy,
                const std::set<int> &blacklisted)
{
    std::set<std::pair<int, int>> storms;
    for (const auto &[key, stats] : res.regions) {
        if (blacklisted.count(key.first))
            continue;
        if (stats.entries < policy.minEntries)
            continue;
        const double rate =
            static_cast<double>(stats.totalAborts()) /
            static_cast<double>(stats.entries);
        if (rate >= policy.stormAbortRate)
            storms.insert(key);
    }
    return storms;
}

namespace {

// splitmix64 finalizer (the codebase's one mixer family; see
// support/failpoint.cc): stateless (seed, ctx, draw) -> jitter.
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

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
    // Only conflicts are contention; capacity/interrupt/explicit
    // aborts have their own remediation (the recompilation loop's
    // storm handling) and must not trip backoff.
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
            stall += mix(policy.seed ^
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

void
ContentionGovernor::publishTelemetry() const
{
    namespace keys = telemetry::keys;
    auto &reg = telemetry::Registry::global();
    reg.add(keys::kResilienceBackoffSteps, backoffStepsTotal);
    reg.add(keys::kResilienceStarvationBoosts, starvationCount);
    reg.add(keys::kResilienceLivelockBreaks, livelockCount);
}

} // namespace aregion::runtime
