/**
 * @file
 * Functional machine simulator tests: codegen structure, executor
 * equivalence with the interpreter (baseline and atomic compiles,
 * including interrupt- and overflow-induced aborts), monitor
 * semantics across contexts, SLE conflict aborts, and region
 * runtime statistics.
 */

#include <gtest/gtest.h>

#include "core/compiler.hh"
#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "ir/translate.hh"
#include "programs.hh"
#include "testing/random_program.hh"
#include "vm/interpreter.hh"

namespace {

using namespace aregion;
using namespace aregion::test;
using aregion::testing::kLegacyScalar;
using aregion::testing::RandomProgramGen;
using aregion::testing::renderProgram;
namespace ir = aregion::ir;
namespace core = aregion::core;
namespace hw = aregion::hw;

/** Compile to machine code under a config. */
hw::MachineProgram
compileToMachine(const Program &prog, const core::CompilerConfig &config)
{
    Profile profile(prog);
    Interpreter interp(prog, &profile);
    interp.run();   // trapping programs still produce a profile
    core::Compiled compiled =
        core::compileProgram(prog, profile, config);
    vm::Heap layout_heap(prog, 1 << 20);
    return hw::lowerModule(compiled.mod,
                           hw::LayoutInfo::fromHeap(layout_heap));
}

hw::MachineResult
runMachine(const hw::MachineProgram &mp,
           const hw::HwConfig &config = {})
{
    hw::Machine machine(mp, config);
    return machine.run();
}

TEST(Codegen, RegionPrimitivesAreLowered)
{
    const Program prog = addElementProgram(2000, 256);
    const auto mp = compileToMachine(
        prog, core::CompilerConfig::atomic());
    int begins = 0, ends = 0, aborts = 0;
    for (const auto &[m, f] : mp.funcs) {
        for (const auto &uop : f.code) {
            if (uop.kind == hw::MKind::ABegin) {
                ++begins;
                EXPECT_GE(uop.target, 0);
                EXPECT_LT(uop.target,
                          static_cast<int>(f.code.size()));
            }
            ends += uop.kind == hw::MKind::AEnd;
            aborts += uop.kind == hw::MKind::AAbort;
        }
    }
    EXPECT_GT(begins, 0);
    EXPECT_GT(ends, 0);
    EXPECT_GT(aborts, 0);
}

TEST(Codegen, ChecksBecomeTrapStubs)
{
    const Program prog = matrixProgram();
    const auto mp = compileToMachine(
        prog, core::CompilerConfig::baseline());
    int traps = 0, branches = 0;
    for (const auto &[m, f] : mp.funcs) {
        for (const auto &uop : f.code) {
            traps += uop.kind == hw::MKind::Trap;
            branches += uop.kind == hw::MKind::Br;
        }
    }
    EXPECT_GT(traps, 0);
    EXPECT_GT(branches, 0);
}

TEST(MachineEquiv, BaselineCompileMatchesInterpreter)
{
    for (const auto &s : allSamplePrograms()) {
        SCOPED_TRACE(s.name);
        Interpreter check(s.prog);
        ASSERT_TRUE(check.run().completed);
        const auto mp = compileToMachine(
            s.prog, core::CompilerConfig::baseline());
        const auto res = runMachine(mp);
        ASSERT_TRUE(res.completed);
        EXPECT_EQ(res.output, check.output());
    }
}

TEST(MachineEquiv, AtomicCompileMatchesInterpreter)
{
    for (const auto &s : allSamplePrograms()) {
        SCOPED_TRACE(s.name);
        Interpreter check(s.prog);
        ASSERT_TRUE(check.run().completed);
        const auto mp = compileToMachine(
            s.prog, core::CompilerConfig::atomic());
        const auto res = runMachine(mp);
        ASSERT_TRUE(res.completed);
        EXPECT_EQ(res.output, check.output());
    }
}

TEST(MachineEquiv, InterruptAbortsPreserveBehaviour)
{
    const Program prog = addElementProgram(2000, 256);
    Interpreter check(prog);
    ASSERT_TRUE(check.run().completed);

    const auto mp = compileToMachine(
        prog, core::CompilerConfig::atomic());
    hw::HwConfig config;
    config.interruptPeriod = 1000;      // aggressive timer
    const auto res = runMachine(mp, config);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.output, check.output());

    uint64_t interrupt_aborts = 0;
    for (const auto &[key, stats] : res.regions) {
        interrupt_aborts += stats.abortsByCause[
            static_cast<int>(hw::AbortCause::Interrupt)];
    }
    EXPECT_GT(interrupt_aborts, 0u);
}

TEST(MachineEquiv, OverflowAbortsPreserveBehaviour)
{
    const Program prog = addElementProgram(2000, 256);
    Interpreter check(prog);
    ASSERT_TRUE(check.run().completed);

    const auto mp = compileToMachine(
        prog, core::CompilerConfig::atomic());
    hw::HwConfig config;
    config.l1Lines = 16;                // tiny speculative capacity
    config.l1Assoc = 2;
    const auto res = runMachine(mp, config);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.output, check.output());

    uint64_t overflow_aborts = 0;
    for (const auto &[key, stats] : res.regions) {
        overflow_aborts += stats.abortsByCause[
            static_cast<int>(hw::AbortCause::Overflow)];
    }
    EXPECT_GT(overflow_aborts, 0u);
}

TEST(MachineEquiv, RandomProgramsUnderBothCompilers)
{
    for (uint64_t seed = 200; seed < 212; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        RandomProgramGen gen(seed, kLegacyScalar);
        const Program prog = renderProgram(gen.generate());
        Interpreter check(prog);
        ASSERT_TRUE(check.run().completed);

        for (bool atomic : {false, true}) {
            core::CompilerConfig config =
                atomic ? core::CompilerConfig::atomic()
                       : core::CompilerConfig::baseline();
            config.region.loopPathThreshold = 20;
            config.region.targetSize = 40;
            const auto mp = compileToMachine(prog, config);
            const auto res = runMachine(mp);
            ASSERT_TRUE(res.completed);
            EXPECT_EQ(res.output, check.output())
                << (atomic ? "atomic" : "baseline");
        }
    }
}

TEST(MachineThreads, LockedCounterIsExactAcrossContexts)
{
    // Reuse the synchronized-increment shape from the VM tests.
    ProgramBuilder pb;
    const ClassId shared = pb.declareClass("S", {"count", "done"});
    const int f_count = pb.fieldIndex(shared, "count");
    const int f_done = pb.fieldIndex(shared, "done");
    const MethodId worker = pb.declareMethod("worker", 1);
    {
        auto w = pb.define(worker);
        const Reg i = w.constant(0);
        const Reg n = w.constant(300);
        const Reg one = w.constant(1);
        const Label loop = w.newLabel();
        const Label done = w.newLabel();
        w.bind(loop);
        w.branchCmp(Bc::CmpGe, i, n, done);
        w.monitorEnter(w.arg(0));
        const Reg c = w.getField(w.arg(0), f_count);
        w.putField(w.arg(0), f_count, w.add(c, one));
        w.monitorExit(w.arg(0));
        w.binopTo(Bc::Add, i, i, one);
        w.safepoint();
        w.jump(loop);
        w.bind(done);
        w.monitorEnter(w.arg(0));
        const Reg d = w.getField(w.arg(0), f_done);
        w.putField(w.arg(0), f_done, w.add(d, one));
        w.monitorExit(w.arg(0));
        w.retVoid();
        w.finish();
    }
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg obj = mb.newObject(shared);
    mb.spawn(worker, {obj});
    mb.spawn(worker, {obj});
    const Reg two = mb.constant(2);
    const Label wait = mb.newLabel();
    const Label ready = mb.newLabel();
    mb.bind(wait);
    mb.safepoint();
    const Reg d = mb.getField(obj, f_done);
    mb.branchCmp(Bc::CmpGe, d, two, ready);
    mb.jump(wait);
    mb.bind(ready);
    mb.print(mb.getField(obj, f_count));
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    const Program prog = pb.build();
    verifyOrDie(prog);

    for (bool atomic : {false, true}) {
        SCOPED_TRACE(atomic ? "atomic" : "baseline");
        const auto mp = compileToMachine(
            prog, atomic ? core::CompilerConfig::atomic()
                         : core::CompilerConfig::baseline());
        const auto res = runMachine(mp);
        ASSERT_TRUE(res.completed);
        EXPECT_EQ(res.output, std::vector<int64_t>{600});
    }
}

TEST(MachineRegions, StatsTrackEntriesCommitsFootprints)
{
    const Program prog = addElementProgram(3000, 256);
    const auto mp = compileToMachine(
        prog, core::CompilerConfig::atomic());
    const auto res = runMachine(mp);
    ASSERT_TRUE(res.completed);
    EXPECT_GT(res.regionEntries, 0u);
    EXPECT_GT(res.regionCommits, 0u);
    EXPECT_EQ(res.regionEntries,
              res.regionCommits + res.regionAborts);
    EXPECT_GT(res.regionUopsRetired, 0u);
    EXPECT_LE(res.regionUopsRetired, res.retiredUops);

    // Footprints stay far below the 512-line L1 (Section 6.2).
    for (const auto &[key, stats] : res.regions) {
        if (stats.footprintLines.count() > 0) {
            EXPECT_LE(stats.footprintLines.max(), 100);
        }
    }
}

TEST(MachineRegions, AtomicRetiresFewerUopsThanBaseline)
{
    const Program prog = addElementProgram(3000, 256);
    const auto base = runMachine(compileToMachine(
        prog, core::CompilerConfig::baseline()));
    const auto atomic = runMachine(compileToMachine(
        prog, core::CompilerConfig::atomic()));
    ASSERT_TRUE(base.completed);
    ASSERT_TRUE(atomic.completed);
    EXPECT_EQ(base.output, atomic.output);
    EXPECT_LT(atomic.retiredUops, base.retiredUops);
}

TEST(MachineSle, ContendedElisionAbortsAndRecovers)
{
    // Two workers hammer a synchronized accumulator; with SLE inside
    // regions, conflicts on the lock word or the data must abort and
    // fall back, but the total stays exact.
    ProgramBuilder pb;
    const ClassId acc = pb.declareClass("Acc", {"total", "done"});
    const int f_total = pb.fieldIndex(acc, "total");
    const int f_done = pb.fieldIndex(acc, "done");
    const MethodId add = pb.declareMethod("add", 2, /*sync=*/true);
    {
        auto f = pb.define(add);
        const Reg t = f.getField(f.self(), f_total);
        f.putField(f.self(), f_total, f.add(t, f.arg(1)));
        f.retVoid();
        f.finish();
    }
    const MethodId worker = pb.declareMethod("worker", 1);
    {
        auto w = pb.define(worker);
        const Reg i = w.constant(0);
        const Reg n = w.constant(250);
        const Reg one = w.constant(1);
        const Label loop = w.newLabel();
        const Label done = w.newLabel();
        w.bind(loop);
        w.branchCmp(Bc::CmpGe, i, n, done);
        w.callStaticVoid(add, {w.arg(0), one});
        w.binopTo(Bc::Add, i, i, one);
        w.safepoint();
        w.jump(loop);
        w.bind(done);
        w.monitorEnter(w.arg(0));
        const Reg d = w.getField(w.arg(0), f_done);
        w.putField(w.arg(0), f_done, w.add(d, one));
        w.monitorExit(w.arg(0));
        w.retVoid();
        w.finish();
    }
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg obj = mb.newObject(acc);
    mb.spawn(worker, {obj});
    mb.spawn(worker, {obj});
    const Reg two = mb.constant(2);
    const Label wait = mb.newLabel();
    const Label ready = mb.newLabel();
    mb.bind(wait);
    mb.safepoint();
    const Reg d = mb.getField(obj, f_done);
    mb.branchCmp(Bc::CmpGe, d, two, ready);
    mb.jump(wait);
    mb.bind(ready);
    mb.print(mb.getField(obj, f_total));
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    const Program prog = pb.build();
    verifyOrDie(prog);

    const auto mp = compileToMachine(
        prog, core::CompilerConfig::atomic());
    const auto res = runMachine(mp);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.output, std::vector<int64_t>{500});
}

TEST(MachineTraps, TrapsMatchInterpreter)
{
    ProgramBuilder pb;
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg n = mb.constant(4);
    const Reg arr = mb.newArray(n);
    const Reg idx = mb.constant(7);
    mb.print(mb.aload(arr, idx));
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    const Program prog = pb.build();
    verifyOrDie(prog);

    Interpreter check(prog);
    const auto ires = check.run();
    ASSERT_TRUE(ires.trap.has_value());

    const auto mp = compileToMachine(
        prog, core::CompilerConfig::baseline());
    const auto res = runMachine(mp);
    ASSERT_TRUE(res.trap.has_value());
    EXPECT_EQ(res.trap->kind, ires.trap->kind);
}

} // namespace
