/**
 * @file
 * Atomic-region formation tests: Algorithm 1/2 units, Equation 1,
 * structural invariants of formed regions, and the central semantic
 * property — region-compiled code behaves identically to the
 * interpreter, even under forced aborts.
 */

#include <gtest/gtest.h>

#include "core/adaptive.hh"
#include "core/compiler.hh"
#include "core/region_formation.hh"
#include "ir/evaluator.hh"
#include "ir/printer.hh"
#include "ir/translate.hh"
#include "ir/verifier.hh"
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

int
countOps(const ir::Function &f, ir::Op op)
{
    int n = 0;
    for (int b : f.reversePostOrder()) {
        for (const auto &in : f.block(b).instrs)
            n += in.op == op;
    }
    return n;
}

int
countOpsModule(const ir::Module &mod, ir::Op op)
{
    int n = 0;
    for (const auto &[m, f] : mod.funcs)
        n += countOps(f, op);
    return n;
}

/** Profile + compile helper. */
core::Compiled
compile(const Program &prog, const core::CompilerConfig &config,
        Profile &profile)
{
    Interpreter interp(prog, &profile);
    const auto res = interp.run();
    AREGION_ASSERT(res.completed, "profiling run failed");
    return core::compileProgram(prog, profile, config);
}

TEST(Equation1, CostShape)
{
    // Exact target size costs zero; deviation costs grow.
    EXPECT_DOUBLE_EQ(core::regionSizeCost(200, 200), 0.0);
    EXPECT_GT(core::regionSizeCost(20, 200),
              core::regionSizeCost(100, 200));
    EXPECT_GT(core::regionSizeCost(800, 200),
              core::regionSizeCost(300, 200));
    // Degenerate size clamps instead of dividing by zero.
    EXPECT_GT(core::regionSizeCost(0, 200), 0.0);
}

TEST(Algorithm2, LoopWeightSumsBlockWork)
{
    ir::Function f;
    f.name = "w";
    auto &a = f.newBlock();
    auto &b = f.newBlock();
    ir::Instr jump;
    jump.op = ir::Op::Jump;
    ir::Instr branch;
    branch.op = ir::Op::Branch;
    branch.srcs = {f.newVreg()};
    ir::Instr cst;
    cst.op = ir::Op::Const;
    cst.dst = 0;
    a.instrs = {cst, cst, jump};        // 3 ops
    a.succs = {b.id};
    a.succCount = {100};
    a.execCount = 100;
    b.instrs = {cst, branch};           // 2 ops
    b.succs = {a.id, a.id};
    b.succCount = {99, 1};
    b.execCount = 100;
    f.entry = a.id;

    ir::Loop loop;
    loop.header = a.id;
    loop.blocks = {a.id, b.id};
    EXPECT_DOUBLE_EQ(core::loopWeight(f, loop), 100 * 3 + 100 * 2);
}

TEST(Algorithm2, TraceDominantPathFollowsHotEdges)
{
    // entry -> A -> (B hot | C cold) -> D(ret)
    ir::Function f;
    f.name = "trace";
    const ir::Vreg v = f.newVreg();
    auto mk = [&](ir::Op op) {
        ir::Instr in;
        in.op = op;
        if (op == ir::Op::Branch)
            in.srcs = {v};
        if (op == ir::Op::Const)
            in.dst = v;
        return in;
    };
    auto &entry = f.newBlock();
    auto &a = f.newBlock();
    auto &b = f.newBlock();
    auto &c = f.newBlock();
    auto &d = f.newBlock();
    entry.instrs = {mk(ir::Op::Const), mk(ir::Op::Jump)};
    entry.succs = {a.id};
    entry.succCount = {100};
    entry.execCount = 100;
    a.instrs = {mk(ir::Op::Branch)};
    a.succs = {b.id, c.id};
    a.succCount = {97, 3};
    a.execCount = 100;
    b.instrs = {mk(ir::Op::Jump)};
    b.succs = {d.id};
    b.succCount = {97};
    b.execCount = 97;
    c.instrs = {mk(ir::Op::Jump)};
    c.succs = {d.id};
    c.succCount = {3};
    c.execCount = 3;
    d.instrs = {mk(ir::Op::Ret)};
    d.execCount = 100;
    f.entry = entry.id;

    const auto path = core::traceDominantPath(
        f, a.id, {entry.id, d.id});
    EXPECT_EQ(path, (std::vector<int>{entry.id, a.id, b.id, d.id}));
}

TEST(Algorithm1, SelectsHotLoopHeaders)
{
    const Program prog = addElementProgram(2000, 256);
    Profile profile(prog);
    Interpreter interp(prog, &profile);
    ASSERT_TRUE(interp.run().completed);

    ir::Module mod = ir::translateProgram(prog, &profile);
    opt::OptContext ctx;
    ctx.profile = &profile;
    opt::optimizeModule(mod, ctx);

    ir::Function &main_fn = mod.funcs.at(prog.mainMethod);
    core::RegionConfig config;
    const auto selected = core::selectBoundaries(main_fn, config);
    EXPECT_FALSE(selected.empty());
    // At least one selected boundary is a loop header.
    const ir::DominatorTree doms(main_fn);
    const ir::LoopForest forest(main_fn, doms);
    bool header_selected = false;
    for (int b : selected) {
        for (const auto &loop : forest.loops())
            header_selected |= loop.header == b;
    }
    EXPECT_TRUE(header_selected);
}

TEST(Formation, StructuralInvariantsHold)
{
    const Program prog = addElementProgram(2000, 256);
    Profile profile(prog);
    core::Compiled compiled =
        compile(prog, core::CompilerConfig::atomic(), profile);
    EXPECT_GT(compiled.stats.regions.regionsFormed, 0);
    EXPECT_GT(compiled.stats.regions.assertsCreated, 0);

    for (const auto &[m, f] : compiled.mod.funcs) {
        ir::verifyOrDie(f);
        for (const auto &region : f.regions) {
            // Entry block: exactly [AtomicBegin, Jump], two succs,
            // exception edge = alt block.
            const ir::Block &begin = f.block(region.entryBlock);
            ASSERT_EQ(begin.instrs.size(), 2u);
            EXPECT_EQ(begin.instrs[0].op, ir::Op::AtomicBegin);
            EXPECT_EQ(begin.instrs[1].op, ir::Op::Jump);
            ASSERT_EQ(begin.succs.size(), 2u);
            EXPECT_EQ(begin.succs[1], region.altBlock);
            // The alt block is ordinary (non-region) code.
            EXPECT_EQ(f.block(region.altBlock).regionId, -1);
        }
        // No calls or nested begins inside region blocks.
        for (int b = 0; b < f.numBlocks(); ++b) {
            const ir::Block &blk = f.block(b);
            if (blk.regionId < 0)
                continue;
            for (size_t i = 0; i < blk.instrs.size(); ++i) {
                const auto op = blk.instrs[i].op;
                EXPECT_NE(op, ir::Op::CallStatic);
                EXPECT_NE(op, ir::Op::CallVirtual);
                if (i > 0) {
                    EXPECT_NE(op, ir::Op::AtomicBegin);
                }
            }
        }
    }
}

TEST(Formation, AtomicCompilationPreservesAllSamples)
{
    for (const auto &s : allSamplePrograms()) {
        SCOPED_TRACE(s.name);
        Profile profile(s.prog);
        core::Compiled compiled =
            compile(s.prog, core::CompilerConfig::atomic(), profile);

        Interpreter check(s.prog);
        ASSERT_TRUE(check.run().completed);

        ir::Evaluator eval(compiled.mod);
        const auto eres = eval.run();
        ASSERT_TRUE(eres.completed);
        EXPECT_EQ(eval.output(), check.output());
    }
}

TEST(Formation, ForcedAbortsDoNotChangeBehaviour)
{
    // Abort every 3rd region commit: outputs must still match, and
    // the abort path must actually be exercised.
    const Program prog = addElementProgram(1500, 256);
    Profile profile(prog);
    core::Compiled compiled =
        compile(prog, core::CompilerConfig::atomic(), profile);

    Interpreter check(prog);
    ASSERT_TRUE(check.run().completed);

    ir::Evaluator eval(compiled.mod);
    eval.forceAbortPeriod = 3;
    const auto eres = eval.run();
    ASSERT_TRUE(eres.completed);
    EXPECT_GT(eres.regionAborts, 100u);
    EXPECT_EQ(eval.output(), check.output());
}

TEST(Formation, RandomProgramsSurviveAtomicCompilation)
{
    for (uint64_t seed = 100; seed < 115; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        RandomProgramGen gen(seed, kLegacyScalar);
        const Program prog = renderProgram(gen.generate());
        Profile profile(prog);
        core::CompilerConfig config = core::CompilerConfig::atomic();
        config.region.loopPathThreshold = 20;   // form more regions
        config.region.targetSize = 40;
        core::Compiled compiled = compile(prog, config, profile);

        Interpreter check(prog);
        ASSERT_TRUE(check.run().completed);

        for (uint64_t force : {0ull, 2ull}) {
            ir::Evaluator eval(compiled.mod);
            eval.forceAbortPeriod = force;
            const auto eres = eval.run();
            ASSERT_TRUE(eres.completed);
            EXPECT_EQ(eval.output(), check.output());
        }
    }
}

TEST(Formation, RegionsReduceDynamicInstructions)
{
    const Program prog = addElementProgram(3000, 256);
    Profile profile(prog);

    core::Compiled base =
        compile(prog, core::CompilerConfig::baseline(), profile);
    Profile profile2(prog);
    core::Compiled atomic =
        compile(prog, core::CompilerConfig::atomic(), profile2);

    ir::Evaluator be(base.mod);
    const auto br = be.run();
    ASSERT_TRUE(br.completed);
    ir::Evaluator ae(atomic.mod);
    const auto ar = ae.run();
    ASSERT_TRUE(ar.completed);

    EXPECT_EQ(ae.output(), be.output());
    EXPECT_GT(ar.regionCommits, 0u);
    // The isolated hot path must be leaner.
    EXPECT_LT(ar.instrs, br.instrs);
}

TEST(Formation, PartialUnrollFusesIterations)
{
    // A small hot loop gets multiple iterations per region.
    const Program prog = arithLoopProgram();
    Profile profile(prog);
    core::CompilerConfig config = core::CompilerConfig::atomic();
    config.unrollBodyLimit = 0;         // isolate region unrolling
    config.region.minRegionInstrs = 4;  // the loop body is tiny
    core::Compiled compiled = compile(prog, config, profile);
    EXPECT_GT(compiled.stats.regions.unrolledRegions, 0);

    Interpreter check(prog);
    ASSERT_TRUE(check.run().completed);
    ir::Evaluator eval(compiled.mod);
    const auto eres = eval.run();
    ASSERT_TRUE(eres.completed);
    EXPECT_EQ(eval.output(), check.output());
    // Fused iterations: commits fewer than loop iterations (40).
    EXPECT_GT(eres.regionCommits, 0u);
    EXPECT_LT(eres.regionCommits, 40u);
}

TEST(Sle, ElidesMonitorsInsideRegions)
{
    const Program prog = monitorProgram();
    Profile profile(prog);
    core::Compiled compiled =
        compile(prog, core::CompilerConfig::atomic(), profile);
    EXPECT_GT(compiled.stats.slePairsElided, 0);

    // Monitor ops must be gone from region blocks.
    for (const auto &[m, f] : compiled.mod.funcs) {
        for (int b = 0; b < f.numBlocks(); ++b) {
            const ir::Block &blk = f.block(b);
            if (blk.regionId < 0)
                continue;
            for (const auto &in : blk.instrs) {
                EXPECT_NE(in.op, ir::Op::MonitorEnter);
                EXPECT_NE(in.op, ir::Op::MonitorExit);
            }
        }
    }

    Interpreter check(prog);
    ASSERT_TRUE(check.run().completed);
    ir::Evaluator eval(compiled.mod);
    const auto eres = eval.run();
    ASSERT_TRUE(eres.completed);
    EXPECT_EQ(eval.output(), check.output());
}

TEST(Sle, HeldLockAbortsToNonSpeculativePath)
{
    // Main holds the accumulator's monitor around the hot loop; the
    // SLE assert must fire and the non-speculative path must produce
    // the correct (reentrant-locked) result.
    ProgramBuilder pb;
    const ClassId acc = pb.declareClass("Acc", {"total"});
    const int f_total = pb.fieldIndex(acc, "total");
    const MethodId add = pb.declareMethod("add", 2, /*sync=*/true);
    {
        auto f = pb.define(add);
        const Reg t = f.getField(f.self(), f_total);
        f.putField(f.self(), f_total, f.add(t, f.arg(1)));
        f.retVoid();
        f.finish();
    }
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg a = mb.newObject(acc);
    mb.monitorEnter(a);             // lock held across the hot loop
    const Reg i = mb.constant(0);
    const Reg n = mb.constant(400);
    const Reg one = mb.constant(1);
    const Label loop = mb.newLabel();
    const Label done = mb.newLabel();
    mb.bind(loop);
    mb.branchCmp(Bc::CmpGe, i, n, done);
    mb.callStaticVoid(add, {a, i});
    mb.binopTo(Bc::Add, i, i, one);
    mb.jump(loop);
    mb.bind(done);
    mb.monitorExit(a);
    mb.print(mb.getField(a, f_total));
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    const Program prog = pb.build();
    verifyOrDie(prog);

    Profile profile(prog);
    core::Compiled compiled =
        compile(prog, core::CompilerConfig::atomic(), profile);

    Interpreter check(prog);
    ASSERT_TRUE(check.run().completed);
    ir::Evaluator eval(compiled.mod);
    const auto eres = eval.run();
    ASSERT_TRUE(eres.completed);
    EXPECT_EQ(eval.output(), check.output());
    if (compiled.stats.slePairsElided > 0) {
        EXPECT_GT(eres.regionAborts, 0u);
    }
}

TEST(Adaptive, OverridesRemoveHotAsserts)
{
    // A branch that profiles cold (taken every 150th iteration in a
    // 6000-iteration loop -> ~0.7% bias) becomes an assert and
    // aborts at runtime; adaptive feedback must neutralise it.
    ProgramBuilder pb;
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg i = mb.constant(0);
    const Reg n = mb.constant(6000);
    const Reg one = mb.constant(1);
    const Reg k = mb.constant(150);
    const Reg sum = mb.constant(0);
    const Label loop = mb.newLabel();
    const Label rare = mb.newLabel();
    const Label next = mb.newLabel();
    const Label done = mb.newLabel();
    mb.bind(loop);
    mb.branchCmp(Bc::CmpGe, i, n, done);
    const Reg rem = mb.binop(Bc::Rem, i, k);
    const Reg zero = mb.constant(0);
    const Reg hit = mb.cmp(Bc::CmpEq, rem, zero);
    mb.branchIf(hit, rare);
    mb.binopTo(Bc::Add, sum, sum, i);
    mb.jump(next);
    mb.bind(rare);
    mb.binopTo(Bc::Add, sum, sum, one);
    mb.jump(next);
    mb.bind(next);
    mb.binopTo(Bc::Add, i, i, one);
    mb.safepoint();
    mb.jump(loop);
    mb.bind(done);
    mb.print(sum);
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    const Program prog = pb.build();
    verifyOrDie(prog);

    Profile profile(prog);
    core::Compiled first =
        compile(prog, core::CompilerConfig::atomic(), profile);

    ir::Evaluator eval1(first.mod);
    const auto res1 = eval1.run();
    ASSERT_TRUE(res1.completed);
    ASSERT_GT(res1.regionAborts, 10u) << "test premise: aborts occur";

    // Build telemetry from the evaluator's abort records.
    core::AbortTelemetry telemetry;
    for (const auto &[key, count] : res1.abortCounts) {
        const auto &[method, assert_id] = key;
        const ir::Function &f = first.mod.funcs.at(method);
        for (const auto &region : f.regions) {
            if (region.abortOrigins.count(assert_id)) {
                auto &t = telemetry[{method, region.id}];
                t.entries = res1.regionEntries;
                t.abortsByAssert[assert_id] += count;
            }
        }
    }
    // The premise at the policy's constants: enough entries, and an
    // abort rate past the threshold.
    using Policy = core::AdaptiveController;
    ASSERT_GE(res1.regionEntries, Policy::minEntries);
    ASSERT_GE(static_cast<double>(res1.regionAborts) /
                  static_cast<double>(res1.regionEntries),
              Policy::abortRateThreshold);
    const auto overrides = Policy{}.computeOverrides(first.mod, telemetry);
    ASSERT_FALSE(overrides.empty());

    // Recompile with warm overrides: the aborts must disappear.
    core::CompilerConfig config = core::CompilerConfig::atomic();
    config.region.warmOverrides = overrides;
    core::Compiled second = core::compileProgram(prog, profile,
                                                 config);
    ir::Evaluator eval2(second.mod);
    const auto res2 = eval2.run();
    ASSERT_TRUE(res2.completed);
    EXPECT_EQ(eval2.output(), eval1.output());
    EXPECT_LT(res2.regionAborts, res1.regionAborts / 5);
}

TEST(Postdom, RemovesSubsumedBoundsChecks)
{
    const Program prog = addElementProgram(2000, 256);
    Profile p1(prog), p2(prog);
    core::CompilerConfig plain = core::CompilerConfig::atomic();
    core::CompilerConfig with_pd = core::CompilerConfig::atomic();
    with_pd.postdomCheckElim = true;

    core::Compiled a = compile(prog, plain, p1);
    core::Compiled b = compile(prog, with_pd, p2);

    // The extension only ever removes additional checks.
    EXPECT_GE(countOpsModule(a.mod, ir::Op::BoundsCheck),
              countOpsModule(b.mod, ir::Op::BoundsCheck));

    Interpreter check(prog);
    ASSERT_TRUE(check.run().completed);
    ir::Evaluator eval(b.mod);
    const auto eres = eval.run();
    ASSERT_TRUE(eres.completed);
    EXPECT_EQ(eval.output(), check.output());
}

TEST(Compiler, ConfigFactoriesMatchPaperNames)
{
    EXPECT_EQ(core::CompilerConfig::baseline().name, "no-atomic");
    EXPECT_EQ(core::CompilerConfig::atomic().name, "atomic");
    EXPECT_TRUE(core::CompilerConfig::atomicAggressiveInline()
                    .atomicRegions);
    EXPECT_DOUBLE_EQ(
        core::CompilerConfig::baselineAggressiveInline()
            .inlineMultiplier, 5.0);
}

TEST(Compiler, ObserverSeesEachStageAndChangesNothing)
{
    const Program prog = monitorProgram();
    Profile profile(prog);
    core::CompilerConfig atomic = core::CompilerConfig::atomic();
    atomic.postdomCheckElim = true;
    const core::Compiled plain = compile(prog, atomic, profile);
    EXPECT_GT(plain.stats.slePairsElided, 0);

    std::string stages;
    const core::StageObserver observe = [&](core::Stage stage,
                                            const ir::Module &mod) {
        stages += std::string(core::stageName(stage)) + " ";
        EXPECT_FALSE(mod.funcs.empty());
    };
    const core::Compiled observed =
        core::compileProgram(prog, profile, atomic, observe);
    EXPECT_EQ(stages, "translate inline+scalar unroll regions sle "
                      "region-scalar postdom ");
    ASSERT_EQ(observed.mod.funcs.size(), plain.mod.funcs.size());
    for (const auto &[m, f] : plain.mod.funcs)
        EXPECT_EQ(ir::toString(observed.mod.funcs.at(m)), ir::toString(f));
    EXPECT_EQ(observed.stats, plain.stats);

    stages.clear();
    core::compileProgram(prog, profile, core::CompilerConfig::baseline(),
                         observe);
    EXPECT_EQ(stages, "translate inline+scalar unroll ");
}

} // namespace
