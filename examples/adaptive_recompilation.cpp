/**
 * @file
 * Adaptive recompilation (paper Section 7).
 *
 * A branch that profiles cold becomes an assert; when the program's
 * behaviour drifts, the assert fires constantly, and every firing
 * pays an abort plus a non-speculative re-execution. The hardware's
 * abort-diagnosis registers (cause + responsible pc) let the runtime
 * map aborts back to the offending compiler assertion; the adaptive
 * controller recompiles with that edge treated as warm.
 */

#include <cstdio>

#include "core/adaptive.hh"
#include "core/compiler.hh"
#include "runtime/jit.hh"
#include "vm/builder.hh"
#include "vm/interpreter.hh"
#include "vm/verifier.hh"

using namespace aregion;
using namespace aregion::vm;

namespace {

/** A filter loop whose "match" rate is `one_in_n`. */
Program
buildFilter(int one_in_n)
{
    ProgramBuilder pb;
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg i = mb.constant(0);
    const Reg n = mb.constant(30000);
    const Reg one = mb.constant(1);
    const Reg k = mb.constant(one_in_n);
    const Reg matches = mb.constant(0);
    const Reg acc = mb.constant(0);
    const Label loop = mb.newLabel();
    const Label match = mb.newLabel();
    const Label next = mb.newLabel();
    const Label done = mb.newLabel();
    mb.bind(loop);
    mb.branchCmp(Bc::CmpGe, i, n, done);
    const Reg rem = mb.binop(Bc::Rem, i, k);
    const Reg zero = mb.constant(0);
    const Reg hit = mb.cmp(Bc::CmpEq, rem, zero);
    mb.branchIf(hit, match);
    mb.binopTo(Bc::Add, acc, acc, i);
    mb.jump(next);
    mb.bind(match);     // "rare" while profiling
    mb.binopTo(Bc::Add, matches, matches, one);
    mb.jump(next);
    mb.bind(next);
    mb.binopTo(Bc::Add, i, i, one);
    mb.safepoint();
    mb.jump(loop);
    mb.bind(done);
    mb.print(acc);
    mb.print(matches);
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    Program prog = pb.build();
    verifyOrDie(prog);
    return prog;
}

} // namespace

int
main()
{
    // Profiling input matches 1/500 (cold); production input 1/25.
    const Program profile_prog = buildFilter(500);
    const Program measure_prog = buildFilter(25);

    runtime::ExperimentConfig static_cfg;
    static_cfg.compiler = core::CompilerConfig::atomic();
    const auto before = runtime::runExperiment(
        profile_prog, measure_prog, static_cfg);

    runtime::ExperimentConfig adaptive_cfg = static_cfg;
    adaptive_cfg.adaptiveRecompile = true;
    const auto after = runtime::runExperiment(
        profile_prog, measure_prog, adaptive_cfg);

    std::printf("static compile  : %8llu cycles, %6llu aborts "
                "(%.1f%% of region entries)\n",
                static_cast<unsigned long long>(before.cycles),
                static_cast<unsigned long long>(before.regionAborts),
                before.abortPct * 100);
    std::printf("adaptive compile: %8llu cycles, %6llu aborts "
                "(recompiled: %s)\n",
                static_cast<unsigned long long>(after.cycles),
                static_cast<unsigned long long>(after.regionAborts),
                after.recompiled ? "yes" : "no");
    std::printf("recovered: %.1f%% faster than the static atomic "
                "compile\n",
                (static_cast<double>(before.cycles) /
                     static_cast<double>(after.cycles) - 1.0) * 100);
    AREGION_ASSERT(before.outputChecksum == after.outputChecksum,
                   "adaptive recompilation changed behaviour");
    return 0;
}
