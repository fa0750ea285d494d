#include "core/compiler.hh"

#include <utility>
#include <vector>

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

const char *
stageName(Stage stage)
{
    static constexpr const char *kNames[] = {
        "translate", "inline+scalar", "unroll",  "regions",
        "sle",       "region-scalar", "postdom",
    };
    return kNames[static_cast<int>(stage)];
}

namespace {

/** The atomic stages. After inlining the functions are independent,
 *  so each stage runs across the module before the next begins, and
 *  the scalar pipeline revisits only the functions a stage changed:
 *  a region-less function is still at the fixpoint optimizeModule
 *  left it at. */
void
runRegionStages(ir::Module &mod, CompileStats &stats,
                const CompilerConfig &config,
                const opt::OptContext &ctx,
                const std::function<void(Stage)> &done)
{
    // Region candidates, each with whether a stage changed it.
    std::vector<std::pair<ir::Function *, bool>> funcs;
    for (auto &[mid, func] : mod.funcs) {
        const RegionStats rs = formRegions(func, config.region);
        stats.regions.regionsFormed += rs.regionsFormed;
        stats.regions.assertsCreated += rs.assertsCreated;
        stats.regions.blocksReplicated += rs.blocksReplicated;
        stats.regions.regionExits += rs.regionExits;
        stats.regions.unrolledRegions += rs.unrolledRegions;
        if (rs.regionsFormed > 0)
            stats.funcsWithRegions++;
        funcs.emplace_back(&func, rs.regionsFormed > 0 ||
                                      rs.assertsCreated > 0 ||
                                      rs.blocksReplicated > 0);
    }
    done(Stage::Regions);

    if (config.sle) {
        for (auto &[func, changed] : funcs) {
            const int elided = elideLocks(*func).pairsElided;
            stats.slePairsElided += elided;
            changed |= elided > 0;
        }
        done(Stage::Sle);
    }

    for (auto &[func, changed] : funcs) {
        if (config.elideSafepointsInRegions) {
            const int elided = elideSafepoints(*func);
            stats.safepointsElided += elided;
            changed |= elided > 0;
        }
        // The payoff: the SAME non-speculative scalar passes now
        // optimize the isolated hot path.
        if (changed)
            opt::runScalarPipeline(*func, ctx);
    }
    done(Stage::RegionScalar);

    if (config.postdomCheckElim) {
        for (auto &[func, changed] : funcs) {
            const int removed = postdomCheckElim(*func);
            stats.postdomChecksRemoved += removed;
            if (removed > 0)
                opt::runScalarPipeline(*func, ctx);
        }
        done(Stage::Postdom);
    }
}

} // namespace

Compiled
compileProgram(const vm::Program &prog, const vm::Profile &profile,
               const CompilerConfig &config, const StageObserver &observe)
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
    const auto done = [&](Stage stage) {
        if (observe)
            observe(stage, result.mod);
    };
    result.mod = ir::translateProgram(prog, &profile);
    done(Stage::Translate);
    opt::inlineModule(result.mod, ctx);
    done(Stage::InlineScalar);
    opt::unrollModule(result.mod, ctx);
    done(Stage::Unroll);
    if (config.atomicRegions)
        runRegionStages(result.mod, result.stats, config, ctx, done);

    for (auto &[mid, func] : result.mod.funcs) {
        ir::verifyOrDie(func);
        result.stats.totalInstrs += func.countInstrs();
    }
    return result;
}

} // namespace aregion::core
