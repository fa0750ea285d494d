#include "opt/pass.hh"

#include <cstdlib>
#include <optional>

#include "ir/ssa.hh"
#include "ir/verifier.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"

namespace aregion::opt {

namespace {

/** Cumulative wall-clock slots for the `jit.pass.*_us` keys,
 *  resolved once (registry references are stable). */
struct PassTimers
{
    std::atomic<uint64_t> &ssa;
    std::atomic<uint64_t> &simplifyCfg;
    std::atomic<uint64_t> &sccp;
    std::atomic<uint64_t> &gvn;
    std::atomic<uint64_t> &dce;
    std::atomic<uint64_t> &inl;
    std::atomic<uint64_t> &unroll;

    static PassTimers &get()
    {
        namespace keys = telemetry::keys;
        auto &reg = telemetry::Registry::global();
        static PassTimers timers{
            reg.counter(keys::kJitPassSsaUs),
            reg.counter(keys::kJitPassSimplifyCfgUs),
            reg.counter(keys::kJitPassSccpUs),
            reg.counter(keys::kJitPassGvnUs),
            reg.counter(keys::kJitPassDceUs),
            reg.counter(keys::kJitPassInlineUs),
            reg.counter(keys::kJitPassUnrollUs),
        };
        return timers;
    }
};

/** AREGION_VERIFY_PASSES=1 runs the IR verifier after every pass
 *  (names the offending pass on failure). */
bool
verifyBetweenPasses()
{
    static const bool on = [] {
        const char *env = std::getenv("AREGION_VERIFY_PASSES");
        return env != nullptr && env[0] != '\0' && env[0] != '0';
    }();
    return on;
}

void
checkAfter(const char *passName, const ir::Function &func)
{
    if (!verifyBetweenPasses())
        return;
    const auto problems = ir::verify(func);
    if (!problems.empty()) {
        AREGION_PANIC("IR verifier after ", passName, ": ",
                      problems.front(), " (", problems.size(),
                      " problems total)");
    }
}

bool
timed(std::atomic<uint64_t> &slot, const char *passName,
      bool (*pass)(ir::Function &), ir::Function &func)
{
    // runScalarPipeline's exit takes a pass's "no change" to mean the
    // function is untouched; the verify mode checks that too.
    std::optional<ir::Function> before;
    if (verifyBetweenPasses())
        before = func;
    bool changed;
    {
        telemetry::ScopedTimerUs timer(slot);
        changed = pass(func);
    }
    if (before && !changed && !(*before == func)) {
        AREGION_PANIC(passName, " reported no change but changed ",
                      func.name);
    }
    checkAfter(passName, func);
    return changed;
}

/** Erase every function no call reaches from main: the closure over
 *  CallStatic and Spawn targets plus, for each vtable slot a
 *  CallVirtual names, every class's method in that slot (lowered
 *  CallVirtual is the only indirect call). Later passes only copy or
 *  delete calls, so an erased function is never needed again. */
void
pruneUnreachable(ir::Module &mod)
{
    const vm::Program &prog = *mod.prog;
    std::vector<bool> reached(static_cast<size_t>(prog.numMethods()));
    std::vector<bool> slots;
    std::vector<vm::MethodId> work;
    const auto reach = [&](vm::MethodId m) {
        if (m != vm::NO_METHOD && !reached[static_cast<size_t>(m)]) {
            reached[static_cast<size_t>(m)] = true;
            work.push_back(m);
        }
    };
    reach(prog.mainMethod);
    while (!work.empty()) {
        const ir::Function &func = mod.funcs.at(work.back());
        work.pop_back();
        for (int b = 0; b < func.numBlocks(); ++b) {
            for (const ir::Instr &in : func.block(b).instrs) {
                if (in.op == ir::Op::CallStatic || in.op == ir::Op::Spawn) {
                    reach(in.aux);
                } else if (in.op == ir::Op::CallVirtual) {
                    const auto slot = static_cast<size_t>(in.aux);
                    if (slot >= slots.size())
                        slots.resize(slot + 1);
                    if (slots[slot])
                        continue;
                    slots[slot] = true;
                    for (vm::ClassId c = 0; c < prog.numClasses(); ++c)
                        reach(prog.tryResolveVirtual(c, in.aux));
                }
            }
        }
    }
    std::erase_if(mod.funcs, [&](const auto &entry) {
        return !reached[static_cast<size_t>(entry.first)];
    });
}

} // namespace

bool
runScalarPipeline(ir::Function &func, const OptContext &ctx)
{
    PassTimers &t = PassTimers::get();

    // Every caller holds conventional form, which the structural
    // passes (inlining, unrolling) need between pipeline runs.
    AREGION_ASSERT(!func.ssaForm,
                   "runScalarPipeline requires conventional form");
    {
        telemetry::ScopedTimerUs timer(t.ssa);
        ir::buildSSA(func);
        checkAfter("ssa-build", func);
    }

    // Cycle the passes until four in a row report no change. Each of
    // the four has then run on the current function and left it
    // alone, so any further run would too: the exit is the exact
    // fixpoint, with no whole round spent confirming it.
    struct Step
    {
        std::atomic<uint64_t> &slot;
        const char *name;
        bool (*pass)(ir::Function &);
    };
    constexpr int kSteps = 4;
    const Step steps[kSteps] = {
        {t.simplifyCfg, "simplify-cfg", simplifyCfg},
        {t.sccp, "sccp", sccp},
        {t.gvn, "gvn", gvn},
        {t.dce, "dce", deadCodeElim},
    };
    bool changed_any = false;
    int unchanged = 0;
    for (int run = 0;
         run < ctx.maxScalarIters * kSteps && unchanged < kSteps; ++run) {
        const Step &step = steps[run % kSteps];
        if (timed(step.slot, step.name, step.pass, func)) {
            changed_any = true;
            unchanged = 0;
        } else {
            ++unchanged;
        }
    }

    {
        telemetry::ScopedTimerUs timer(t.ssa);
        ir::destroySSA(func);
        checkAfter("ssa-destroy", func);
    }
    return changed_any;
}

void
inlineModule(ir::Module &mod, const OptContext &ctx)
{
    PassTimers &t = PassTimers::get();
    // Inline/devirtualize to a fixpoint, cleaning between sweeps so
    // size estimates see optimized callees. Only the first sweep
    // cleans every function (translate output is raw); later sweeps
    // revisit just the callers the inliner touched — everything else
    // is already at the scalar fixpoint, and re-running the pipeline
    // there is the kind of redundant compile time the telemetry
    // counters exist to expose. Each sweep then drops the functions
    // no call reaches any more (a callee inlined at its only site),
    // so no later stage compiles code that cannot run.
    for (int round = 0; round < 4; ++round) {
        bool inlined = false;
        std::vector<vm::MethodId> touched;
        {
            telemetry::ScopedTimerUs timer(t.inl);
            inlined = inlineCalls(mod, ctx, &touched);
            pruneUnreachable(mod);
        }
        if (round == 0) {
            for (auto &[mid, func] : mod.funcs)
                runScalarPipeline(func, ctx);
        } else {
            for (vm::MethodId mid : touched) {
                if (const auto it = mod.funcs.find(mid);
                    it != mod.funcs.end())
                    runScalarPipeline(it->second, ctx);
            }
        }
        if (!inlined)
            break;
    }
}

void
unrollModule(ir::Module &mod, const OptContext &ctx)
{
    PassTimers &t = PassTimers::get();
    for (auto &[mid, func] : mod.funcs) {
        bool unrolled = false;
        {
            telemetry::ScopedTimerUs timer(t.unroll);
            unrolled = unrollLoops(func, ctx);
        }
        if (unrolled)
            runScalarPipeline(func, ctx);
    }
}

void
optimizeModule(ir::Module &mod, const OptContext &ctx)
{
    inlineModule(mod, ctx);
    unrollModule(mod, ctx);
}

} // namespace aregion::opt
