#include "core/compiler.hh"

#include "core/lock_elision.hh"
#include "core/safepoint_elision.hh"
#include "core/postdom_check_elim.hh"
#include "ir/translate.hh"
#include "ir/verifier.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"

namespace aregion::core {

CompilerConfig
CompilerConfig::baseline()
{
    CompilerConfig config;
    config.name = "no-atomic";
    return config;
}

CompilerConfig
CompilerConfig::atomic()
{
    CompilerConfig config;
    config.name = "atomic";
    config.atomicRegions = true;
    return config;
}

CompilerConfig
CompilerConfig::baselineAggressiveInline()
{
    CompilerConfig config;
    config.name = "no-atomic+aggr-inline";
    config.inlineMultiplier = 5.0;
    return config;
}

CompilerConfig
CompilerConfig::atomicAggressiveInline()
{
    CompilerConfig config;
    config.name = "atomic+aggr-inline";
    config.atomicRegions = true;
    config.inlineMultiplier = 5.0;
    return config;
}

Compiled
compileProgram(const vm::Program &prog, const vm::Profile &profile,
               const CompilerConfig &config)
{
    // The aggregate compile-time counter lives here, not in the
    // runtime driver: every entry point (experiment runner, bench
    // harnesses, tests) gets a jit.compile_us that covers the same
    // work the per-pass jit.pass.* timers break down.
    telemetry::ScopedTimerUs total_timer(
        telemetry::Registry::global().counter(
            telemetry::keys::kJitCompileUs));

    opt::OptContext ctx = config.opt;
    ctx.profile = &profile;
    ctx.inlineCalleeLimit = static_cast<int>(
        ctx.inlineCalleeLimit * config.inlineMultiplier);
    ctx.inlineGrowthLimit = static_cast<int>(
        ctx.inlineGrowthLimit * config.inlineMultiplier);
    // The partial inliner refuses methods containing polymorphic
    // call sites (Section 6.1, the jython anecdote). With a 5x
    // budget the regular inliner fully inlines such methods anyway
    // (the guarded devirtualization handles the slow path), matching
    // the paper's atomic+aggressive-inlining behaviour.
    if (config.atomicRegions) {
        // Region formation Step 1: aggressive (partial) inlining of
        // methods whose hot bodies will be region-encapsulated.
        ctx.partialInlineLimit = 140;
        if (!config.forceMonomorphic &&
            config.inlineMultiplier <= 1.0) {
            ctx.refusePolymorphicCallees = true;
        }
    }
    if (config.forceMonomorphic) {
        ctx.devirtBias = 0.50;
        ctx.assumeMonomorphic = true;
    }

    Compiled result;
    result.mod = ir::translateProgram(prog, &profile);
    opt::optimizeModule(result.mod, ctx);

    if (config.atomicRegions) {
        for (auto &[mid, func] : result.mod.funcs) {
            if (config.region.blacklistMethods.count(mid)) {
                // Abort-storm resilience condemned this method:
                // compile it non-speculative (no regions, no
                // region-dependent passes) but still give the
                // scalar pipeline its normal pass.
                result.stats.funcsBlacklisted++;
                opt::runScalarPipeline(func, ctx);
                continue;
            }
            const RegionStats rs = formRegions(func, config.region);
            result.stats.regions.regionsFormed += rs.regionsFormed;
            result.stats.regions.assertsCreated += rs.assertsCreated;
            result.stats.regions.blocksReplicated +=
                rs.blocksReplicated;
            result.stats.regions.regionExits += rs.regionExits;
            result.stats.regions.unrolledRegions +=
                rs.unrolledRegions;
            if (rs.regionsFormed > 0)
                result.stats.funcsWithRegions++;

            // Only functions these passes actually changed need
            // another scalar sweep — a region-less function is still
            // at the fixpoint optimizeModule left it at.
            bool needs_cleanup = rs.regionsFormed > 0 ||
                                 rs.assertsCreated > 0 ||
                                 rs.blocksReplicated > 0;
            if (config.sle) {
                const SleStats sle = elideLocks(func);
                result.stats.slePairsElided += sle.pairsElided;
                needs_cleanup |= sle.pairsElided > 0;
            }
            if (config.elideSafepointsInRegions) {
                const int elided = elideSafepoints(func);
                result.stats.safepointsElided += elided;
                needs_cleanup |= elided > 0;
            }
            // The payoff: the SAME non-speculative scalar passes now
            // optimize the isolated hot path.
            if (needs_cleanup)
                opt::runScalarPipeline(func, ctx);

            if (config.postdomCheckElim) {
                const int removed = postdomCheckElim(func);
                result.stats.postdomChecksRemoved += removed;
                if (removed > 0)
                    opt::runScalarPipeline(func, ctx);
            }
        }
    }

    for (auto &[mid, func] : result.mod.funcs) {
        ir::verifyOrDie(func);
        result.stats.totalInstrs += func.countInstrs();
    }
    return result;
}

} // namespace aregion::core
