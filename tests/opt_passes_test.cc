/**
 * @file
 * Optimization pass tests: targeted transformations plus
 * executor-equivalence properties over sample and random programs.
 *
 * The scalar passes (sccp, gvn, dce) run on SSA form; targeted tests
 * wrap them in buildSSA/destroySSA so the counted shapes are what the
 * rest of the compiler sees (conventional form).
 */

#include <gtest/gtest.h>

#include <set>

#include "core/compiler.hh"
#include "figures.hh"
#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "ir/evaluator.hh"
#include "ir/ssa.hh"
#include "ir/translate.hh"
#include "ir/verifier.hh"
#include "opt/pass.hh"
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
namespace opt = aregion::opt;

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

/** Run `passes` on SSA form, lowering back out afterwards. */
void
inSsa(ir::Function &f,
      const std::function<void(ir::Function &)> &passes)
{
    ir::buildSSA(f);
    passes(f);
    ir::destroySSA(f);
}

/** Run `transform` on the module and check output equivalence. */
void
checkEquivalence(const Program &prog,
                 const std::function<void(ir::Module &)> &transform)
{
    Interpreter interp(prog);
    const auto ires = interp.run();
    ASSERT_TRUE(ires.completed);

    ir::Module mod = ir::translateProgram(prog);
    transform(mod);
    for (const auto &[m, f] : mod.funcs)
        ir::verifyOrDie(f);
    ir::Evaluator eval(mod);
    const auto eres = eval.run();
    ASSERT_TRUE(eres.completed);
    EXPECT_EQ(eval.output(), interp.output());
}

TEST(OptSimplifyCfg, PreservesBehaviourOnAllSamples)
{
    for (const auto &s : allSamplePrograms()) {
        SCOPED_TRACE(s.name);
        checkEquivalence(s.prog, [](ir::Module &mod) {
            for (auto &[m, f] : mod.funcs)
                opt::simplifyCfg(f);
        });
    }
}

TEST(OptSimplifyCfg, PreservesBehaviourOnAllSamplesInSsaForm)
{
    for (const auto &s : allSamplePrograms()) {
        SCOPED_TRACE(s.name);
        checkEquivalence(s.prog, [](ir::Module &mod) {
            for (auto &[m, f] : mod.funcs)
                inSsa(f, [](ir::Function &fn) {
                    opt::simplifyCfg(fn);
                });
        });
    }
}

TEST(OptSimplifyCfg, MergesStraightLineBlocks)
{
    const Program prog = arithLoopProgram();
    ir::Function f = ir::translate(prog, prog.mainMethod);
    const int before = f.numBlocks();
    opt::simplifyCfg(f);
    EXPECT_LE(f.numBlocks(), before);
    ir::verifyOrDie(f);

    // One call folds a whole chain, however long: 100 blocks of
    // Const + Jump (the last returns) become one block.
    ir::Function chain;
    chain.name = "chain";
    constexpr int kLength = 100;
    for (int i = 0; i < kLength; ++i) {
        ir::Block &blk = chain.newBlock();
        ir::Instr c;
        c.op = ir::Op::Const;
        c.dst = chain.newVreg();
        c.imm = i;
        blk.instrs.push_back(c);
        ir::Instr term;
        term.op = i + 1 < kLength ? ir::Op::Jump : ir::Op::Ret;
        blk.instrs.push_back(term);
        if (i + 1 < kLength)
            blk.succs = {i + 1};
    }
    ir::verifyOrDie(chain);
    EXPECT_TRUE(opt::simplifyCfg(chain));
    ir::verifyOrDie(chain);
    ASSERT_EQ(chain.numBlocks(), 1);
    const ir::Block &only = chain.block(chain.entry);
    ASSERT_EQ(only.instrs.size(), static_cast<size_t>(kLength + 1));
    for (int i = 0; i < kLength; ++i)
        EXPECT_EQ(only.instrs[static_cast<size_t>(i)].imm, i);
    EXPECT_EQ(only.terminator().op, ir::Op::Ret);
}

/**
 * Regression (minimized from a random-program pipeline failure):
 * jump-threading both arms of a branch through trivial jump blocks
 * into the same phi-carrying join used to give one predecessor two
 * phi slots holding different values — an edge distinction the
 * representation cannot express — and the same-target branch
 * collapse then dropped one slot arbitrarily, flipping the merged
 * value. Threading must refuse the second arm instead.
 */
TEST(OptSimplifyCfg, ThreadingNeverLeavesAmbiguousPhiEdges)
{
    // Host program: the Evaluator sizes its heap from a vm::Program;
    // the hand-built IR below replaces the trivial bytecode main.
    ProgramBuilder pb;
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    const Program prog = pb.build();

    //   b0: cond=1; a=10; b=20; branch cond -> t1, t2
    //   t1: jump join          t2: jump join
    //   join: m = phi [a, t1], [b, t2]; print m; ret
    auto diamond = [&]() {
        ir::Function f;
        f.name = "main";
        f.methodId = prog.mainMethod;
        f.ssaForm = true;
        ir::Block &b0 = f.newBlock();
        ir::Block &t1 = f.newBlock();
        ir::Block &t2 = f.newBlock();
        ir::Block &join = f.newBlock();
        f.entry = b0.id;
        const ir::Vreg cond = f.newVreg();
        const ir::Vreg a = f.newVreg();
        const ir::Vreg b = f.newVreg();
        const ir::Vreg m = f.newVreg();
        auto emit = [](ir::Block &blk, ir::Op op, ir::Vreg dst,
                       std::vector<ir::Vreg> srcs,
                       int64_t imm = 0) -> ir::Instr & {
            ir::Instr in;
            in.op = op;
            in.dst = dst;
            in.srcs = std::move(srcs);
            in.imm = imm;
            blk.instrs.push_back(std::move(in));
            return blk.instrs.back();
        };
        emit(b0, ir::Op::Const, cond, {}, 1);
        emit(b0, ir::Op::Const, a, {}, 10);
        emit(b0, ir::Op::Const, b, {}, 20);
        emit(b0, ir::Op::Branch, ir::NO_VREG, {cond});
        b0.succs = {t1.id, t2.id};
        emit(t1, ir::Op::Jump, ir::NO_VREG, {});
        t1.succs = {join.id};
        emit(t2, ir::Op::Jump, ir::NO_VREG, {});
        t2.succs = {join.id};
        ir::Instr &phi = emit(join, ir::Op::Phi, m, {a, b});
        phi.phiBlocks = {t1.id, t2.id};
        emit(join, ir::Op::Print, ir::NO_VREG, {m});
        emit(join, ir::Op::Ret, ir::NO_VREG, {});
        ir::verifyOrDie(f);
        return f;
    };

    ir::Module ref;
    ref.prog = &prog;
    ref.funcs.emplace(prog.mainMethod, diamond());
    ir::destroySSA(ref.funcs.at(prog.mainMethod));
    ir::Evaluator ref_eval(ref);
    ASSERT_TRUE(ref_eval.run().completed);
    ASSERT_EQ(ref_eval.output(), (std::vector<int64_t>{10}));

    ir::Module mod;
    mod.prog = &prog;
    mod.funcs.emplace(prog.mainMethod, diamond());
    ir::Function &f = mod.funcs.at(prog.mainMethod);
    opt::simplifyCfg(f);
    ir::verifyOrDie(f);
    // No predecessor may hold two phi slots with different values.
    for (int bid : f.reversePostOrder()) {
        for (const auto &in : f.block(bid).instrs) {
            if (in.op != ir::Op::Phi)
                continue;
            std::map<int, ir::Vreg> seen;
            for (size_t k = 0; k < in.phiBlocks.size(); ++k) {
                auto [it, fresh] =
                    seen.emplace(in.phiBlocks[k], in.srcs[k]);
                EXPECT_TRUE(fresh || it->second == in.srcs[k])
                    << "ambiguous phi slots for pred b"
                    << in.phiBlocks[k];
            }
        }
    }
    ir::destroySSA(f);
    ir::Evaluator eval(mod);
    ASSERT_TRUE(eval.run().completed);
    EXPECT_EQ(eval.output(), ref_eval.output());
}

TEST(OptSccp, FoldsConstantChains)
{
    ProgramBuilder pb;
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg a = mb.constant(6);
    const Reg b = mb.constant(7);
    const Reg c = mb.mul(a, b);
    const Reg d = mb.addImm(c, 0);     // identity
    mb.print(d);
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    const Program prog = pb.build();
    verifyOrDie(prog);

    ir::Function f = ir::translate(prog, prog.mainMethod);
    inSsa(f, [](ir::Function &fn) { opt::sccp(fn); });
    // The multiply must be folded away.
    EXPECT_EQ(countOps(f, ir::Op::Mul), 0);
    checkEquivalence(prog, [](ir::Module &mod) {
        for (auto &[m, fn] : mod.funcs)
            inSsa(fn, [](ir::Function &g) { opt::sccp(g); });
    });
}

TEST(OptSccp, EliminatesConstantBranches)
{
    ProgramBuilder pb;
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg a = mb.constant(1);
    const Reg b = mb.constant(2);
    const Label unreachable = mb.newLabel();
    const Label done = mb.newLabel();
    mb.branchCmp(Bc::CmpGt, a, b, unreachable);  // never taken
    mb.print(mb.constant(10));
    mb.jump(done);
    mb.bind(unreachable);
    mb.print(mb.constant(20));
    mb.bind(done);
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    const Program prog = pb.build();
    verifyOrDie(prog);

    ir::Function f = ir::translate(prog, prog.mainMethod);
    const int blocks_before = f.numBlocks();
    inSsa(f, [](ir::Function &fn) { opt::sccp(fn); });
    EXPECT_EQ(countOps(f, ir::Op::Branch), 0);
    EXPECT_LT(f.numBlocks(), blocks_before);    // dead arm removed
}

TEST(OptGvn, RemovesRedundantLoadsAndChecks)
{
    // Two back-to-back getfields of the same field: the second load
    // and null check must go after GVN + cleanup.
    ProgramBuilder pb;
    const ClassId c = pb.declareClass("C", {"f"});
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg o = mb.newObject(c);
    const Reg v = mb.constant(5);
    mb.putField(o, 0, v);
    const Reg x = mb.getField(o, 0);
    const Reg y = mb.getField(o, 0);
    mb.print(mb.add(x, y));
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    const Program prog = pb.build();
    verifyOrDie(prog);

    ir::Function f = ir::translate(prog, prog.mainMethod);
    opt::simplifyCfg(f);
    EXPECT_EQ(countOps(f, ir::Op::LoadField), 2);
    EXPECT_EQ(countOps(f, ir::Op::NullCheck), 3);
    inSsa(f, [](ir::Function &fn) {
        opt::gvn(fn);
        opt::deadCodeElim(fn);
    });
    ir::verifyOrDie(f);
    // Store-to-load forwarding removes BOTH loads; null checks
    // collapse to one.
    EXPECT_EQ(countOps(f, ir::Op::LoadField), 0);
    EXPECT_EQ(countOps(f, ir::Op::NullCheck), 1);

    checkEquivalence(prog, [](ir::Module &mod) {
        for (auto &[m, fn] : mod.funcs) {
            inSsa(fn, [](ir::Function &g) {
                opt::gvn(g);
                opt::deadCodeElim(g);
            });
        }
    });
}

TEST(OptGvn, ColdJoinBlocksEliminationButAssertWouldNot)
{
    // A diamond recomputing the same expression in the tail: with a
    // join from the cold arm (which does not compute it), AVAIL
    // intersection blocks reuse of the hot arm's computation. This
    // documents the baseline limitation the paper addresses.
    ir::Function f;
    f.name = "diamond";
    const ir::Vreg a = f.newVreg();
    const ir::Vreg b = f.newVreg();
    const ir::Vreg t1 = f.newVreg();
    const ir::Vreg t2 = f.newVreg();
    auto &entry = f.newBlock();
    auto &hot = f.newBlock();
    auto &cold = f.newBlock();
    auto &tail = f.newBlock();
    auto mk = [](ir::Op op, ir::Vreg dst, std::vector<ir::Vreg> srcs,
                 int64_t imm = 0) {
        ir::Instr in;
        in.op = op;
        in.dst = dst;
        in.srcs = std::move(srcs);
        in.imm = imm;
        return in;
    };
    entry.instrs = {mk(ir::Op::Const, a, {}, 3),
                    mk(ir::Op::Const, b, {}, 4),
                    mk(ir::Op::Branch, ir::NO_VREG, {a})};
    entry.succs = {hot.id, cold.id};
    entry.succCount = {1, 0};
    hot.instrs = {mk(ir::Op::Add, t1, {a, b}),
                  mk(ir::Op::Jump, ir::NO_VREG, {})};
    hot.succs = {tail.id};
    hot.succCount = {1};
    cold.instrs = {mk(ir::Op::Jump, ir::NO_VREG, {})};
    cold.succs = {tail.id};
    cold.succCount = {0};
    tail.instrs = {mk(ir::Op::Add, t2, {a, b}),
                   mk(ir::Op::Print, ir::NO_VREG, {t2}),
                   mk(ir::Op::Print, ir::NO_VREG, {t1}),
                   mk(ir::Op::Ret, ir::NO_VREG, {})};
    f.entry = entry.id;
    ir::verifyOrDie(f);

    const int entry_id = entry.id;
    const int hot_id = hot.id;
    inSsa(f, [](ir::Function &fn) { opt::gvn(fn); });
    // Both Adds must survive: the cold path kills availability.
    EXPECT_EQ(countOps(f, ir::Op::Add), 2);

    // Remove the cold join edge (as region formation does) and the
    // same pass now eliminates the recomputation.
    f.block(entry_id).succs = {hot_id};
    f.block(entry_id).succCount = {1};
    f.block(entry_id).instrs.back() =
        mk(ir::Op::Jump, ir::NO_VREG, {});
    f.compact();
    inSsa(f, [](ir::Function &fn) {
        opt::gvn(fn);
        opt::deadCodeElim(fn);
    });
    EXPECT_EQ(countOps(f, ir::Op::Add), 1);
}

TEST(OptSccp, ForwardsThroughMovChains)
{
    ProgramBuilder pb;
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg a = mb.constant(11);
    const Reg b = mb.newReg();
    const Reg c = mb.newReg();
    mb.mov(b, a);
    mb.mov(c, b);
    mb.print(c);
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    const Program prog = pb.build();
    verifyOrDie(prog);

    ir::Function f = ir::translate(prog, prog.mainMethod);
    inSsa(f, [](ir::Function &fn) {
        opt::sccp(fn);
        opt::deadCodeElim(fn);
    });
    EXPECT_EQ(countOps(f, ir::Op::Mov), 0);
}

TEST(OptDce, KeepsChecksAndEffects)
{
    const Program prog = addElementProgram(50, 8);
    ir::Module mod = ir::translateProgram(prog);
    for (auto &[m, f] : mod.funcs) {
        const int checks_before = countOps(f, ir::Op::NullCheck) +
                                  countOps(f, ir::Op::BoundsCheck);
        opt::deadCodeElim(f);
        const int checks_after = countOps(f, ir::Op::NullCheck) +
                                 countOps(f, ir::Op::BoundsCheck);
        EXPECT_EQ(checks_before, checks_after);
    }
}

TEST(OptDce, RemovesDeadArithmetic)
{
    ProgramBuilder pb;
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg a = mb.constant(1);
    const Reg b = mb.constant(2);
    mb.add(a, b);               // dead
    mb.mul(a, b);               // dead
    mb.print(a);
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    const Program prog = pb.build();
    verifyOrDie(prog);

    ir::Function f = ir::translate(prog, prog.mainMethod);
    opt::deadCodeElim(f);
    EXPECT_EQ(countOps(f, ir::Op::Add), 0);
    EXPECT_EQ(countOps(f, ir::Op::Mul), 0);
}

TEST(OptDce, RemovesDeadPhiCyclesInSsaForm)
{
    // A loop-carried counter nobody reads: under backward liveness
    // the phi and its increment keep each other alive; mark-sweep
    // from essential roots removes both.
    ProgramBuilder pb;
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg i = mb.constant(0);
    const Reg dead = mb.constant(0);
    const Reg lim = mb.constant(10);
    const Reg one = mb.constant(1);
    const Reg three = mb.constant(3);
    const Label head = mb.newLabel();
    const Label out = mb.newLabel();
    mb.bind(head);
    mb.branchCmp(Bc::CmpGe, i, lim, out);
    mb.binopTo(Bc::Add, dead, dead, three);  // never observed
    mb.binopTo(Bc::Add, i, i, one);
    mb.jump(head);
    mb.bind(out);
    mb.print(i);
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    const Program prog = pb.build();
    verifyOrDie(prog);

    ir::Function f = ir::translate(prog, prog.mainMethod);
    ir::buildSSA(f);
    opt::deadCodeElim(f);
    ir::verifyOrDie(f);
    // Only the live increment survives: i += 1 (plus the compare).
    EXPECT_EQ(countOps(f, ir::Op::Add), 1);
    ir::destroySSA(f);
    ir::verifyOrDie(f);
}

TEST(OptInliner, InlinesSmallStaticCallees)
{
    const Program prog = fibProgram();
    Profile profile(prog);
    Interpreter interp(prog, &profile);
    ASSERT_TRUE(interp.run().completed);

    ir::Module mod = ir::translateProgram(prog, &profile);
    opt::OptContext ctx;
    ctx.profile = &profile;
    opt::inlineCalls(mod, ctx);
    // fib calls inside fib get (partially) inlined: main's call count
    // unchanged or reduced, fib grows.
    for (const auto &[m, f] : mod.funcs)
        ir::verifyOrDie(f);
    checkEquivalence(prog, [&](ir::Module &m2) {
        opt::inlineCalls(m2, ctx);
    });
}

TEST(OptInliner, DevirtualizesMonomorphicSites)
{
    const Program prog = dispatchProgram();
    Profile profile(prog);
    Interpreter interp(prog, &profile);
    ASSERT_TRUE(interp.run().completed);

    ir::Module mod = ir::translateProgram(prog, &profile);
    opt::OptContext ctx;
    ctx.profile = &profile;
    ctx.devirtBias = 0.90;      // receiver is ~97% Square
    opt::inlineCalls(mod, ctx);
    ir::Function &main_fn = mod.funcs.at(prog.mainMethod);
    ir::verifyOrDie(main_fn);
    // The residual (slow-path) virtual call is tagged imm=1.
    int residual = 0;
    for (int b : main_fn.reversePostOrder()) {
        for (const auto &in : main_fn.block(b).instrs) {
            if (in.op == ir::Op::CallVirtual)
                residual += in.imm == 1;
        }
    }
    EXPECT_GE(residual, 1);

    checkEquivalence(prog, [&](ir::Module &m2) {
        opt::inlineCalls(m2, ctx);
    });
}

TEST(OptUnroll, DuplicatesHotLoopBodies)
{
    const Program prog = arithLoopProgram();
    Profile profile(prog);
    Interpreter interp(prog, &profile);
    ASSERT_TRUE(interp.run().completed);

    ir::Module mod = ir::translateProgram(prog, &profile);
    opt::OptContext ctx;
    ctx.profile = &profile;
    ir::Function &f = mod.funcs.at(prog.mainMethod);
    opt::simplifyCfg(f);
    const int before = f.countInstrs();
    const bool changed = opt::unrollLoops(f, ctx);
    EXPECT_TRUE(changed);
    EXPECT_GT(f.countInstrs(), before);
    ir::verifyOrDie(f);

    checkEquivalence(prog, [&](ir::Module &m2) {
        for (auto &[mid, fn] : m2.funcs) {
            opt::simplifyCfg(fn);
            opt::unrollLoops(fn, ctx);
        }
    });
}

TEST(OptPipeline, FullOptimizationPreservesAllSamples)
{
    for (const auto &s : allSamplePrograms()) {
        SCOPED_TRACE(s.name);
        Profile profile(s.prog);
        Interpreter interp(s.prog, &profile);
        ASSERT_TRUE(interp.run().completed);
        opt::OptContext ctx;
        ctx.profile = &profile;
        checkEquivalence(s.prog, [&](ir::Module &mod) {
            opt::optimizeModule(mod, ctx);
        });
    }
}

TEST(OptPipeline, LeavesConventionalForm)
{
    // Everything downstream of the pipeline (region formation,
    // machine-code emission) expects phis to be gone.
    const Program prog = arithLoopProgram();
    Profile profile(prog);
    Interpreter interp(prog, &profile);
    ASSERT_TRUE(interp.run().completed);
    opt::OptContext ctx;
    ctx.profile = &profile;
    ir::Module mod = ir::translateProgram(prog, &profile);
    opt::optimizeModule(mod, ctx);
    for (const auto &[m, f] : mod.funcs) {
        EXPECT_FALSE(f.ssaForm);
        EXPECT_EQ(countOps(f, ir::Op::Phi), 0);
    }
}

TEST(OptPipeline, ReducesDynamicInstructionCount)
{
    const Program prog = addElementProgram(400, 32);
    Profile profile(prog);
    Interpreter interp(prog, &profile);
    ASSERT_TRUE(interp.run().completed);

    ir::Module base = ir::translateProgram(prog, &profile);
    ir::Evaluator base_eval(base);
    const auto base_res = base_eval.run();
    ASSERT_TRUE(base_res.completed);

    ir::Module optimized = ir::translateProgram(prog, &profile);
    opt::OptContext ctx;
    ctx.profile = &profile;
    opt::optimizeModule(optimized, ctx);
    ir::Evaluator opt_eval(optimized);
    const auto opt_res = opt_eval.run();
    ASSERT_TRUE(opt_res.completed);

    EXPECT_EQ(opt_eval.output(), base_eval.output());
    EXPECT_LT(opt_res.instrs, base_res.instrs);
}

TEST(OptProperty, RandomProgramsSurviveFullPipeline)
{
    for (uint64_t seed = 1; seed <= 25; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        RandomProgramGen gen(seed, kLegacyScalar);
        const Program prog = renderProgram(gen.generate());
        Profile profile(prog);
        Interpreter interp(prog, &profile);
        const auto ires = interp.run();
        ASSERT_TRUE(ires.completed);

        opt::OptContext ctx;
        ctx.profile = &profile;
        ir::Module mod = ir::translateProgram(prog, &profile);
        opt::optimizeModule(mod, ctx);
        for (const auto &[m, f] : mod.funcs)
            ir::verifyOrDie(f);
        ir::Evaluator eval(mod);
        const auto eres = eval.run();
        ASSERT_TRUE(eres.completed);
        EXPECT_EQ(eval.output(), interp.output());
    }
}

/**
 * runScalarPipeline stops once four passes in a row report no
 * change, which is the fixpoint only if a pass that returns false
 * leaves the function untouched. Check that premise field by field
 * on every function of random programs of every canonical mask, at
 * every compile stage, with the passes run round-robin in SSA form
 * until a whole round changes nothing.
 */
TEST(OptPipeline, PassReportingNoChangeLeavesFunctionUntouched)
{
    using Pass = bool (*)(ir::Function &);
    const std::pair<const char *, Pass> passes[] = {
        {"simplify-cfg", opt::simplifyCfg},
        {"sccp", opt::sccp},
        {"gvn", opt::gvn},
        {"dce", opt::deadCodeElim},
    };
    core::CompilerConfig config = core::CompilerConfig::atomic();
    config.region = core::RegionConfig::smallBodies();
    config.postdomCheckElim = true;
    int unchanged_results = 0;
    for (uint32_t mask : aregion::testing::canonicalMasks()) {
        for (uint64_t seed = 1; seed <= 8; ++seed) {
            SCOPED_TRACE("mask " + aregion::testing::maskName(mask) +
                         " seed " + std::to_string(seed));
            RandomProgramGen gen(seed, mask);
            const Program prog = renderProgram(gen.generate());
            Profile profile(prog);
            Interpreter interp(prog, &profile, 1ull << 22);
            try {
                interp.run(1ull << 24);
            } catch (const vm::Trap &) {
                // A trapping run still leaves a usable profile.
            }
            core::compileProgram(
                prog, profile, config,
                [&](core::Stage stage, const ir::Module &mod) {
                    for (const auto &[mid, original] : mod.funcs) {
                        ir::Function f = original;
                        ir::buildSSA(f);
                        for (int round = 0; round < 8; ++round) {
                            bool any = false;
                            for (const auto &[name, pass] : passes) {
                                const ir::Function before = f;
                                if (pass(f)) {
                                    any = true;
                                    continue;
                                }
                                ++unchanged_results;
                                EXPECT_TRUE(before == f)
                                    << name << " reported no change "
                                    << "but changed " << f.name
                                    << " after stage "
                                    << core::stageName(stage);
                            }
                            if (!any)
                                break;
                        }
                    }
                });
        }
    }
    EXPECT_GT(unchanged_results, 10000);
}

/** Methods a call can reach from main, computed independently of the
 *  compiler's prune: CallStatic and Spawn targets, and for each
 *  vtable slot a CallVirtual names, every class's method there. */
std::set<vm::MethodId>
callClosure(const ir::Module &mod)
{
    const Program &prog = *mod.prog;
    std::set<vm::MethodId> seen{prog.mainMethod};
    std::vector<vm::MethodId> work{prog.mainMethod};
    while (!work.empty()) {
        const ir::Function &f = mod.funcs.at(work.back());
        work.pop_back();
        std::vector<vm::MethodId> targets;
        for (int b = 0; b < f.numBlocks(); ++b) {
            for (const ir::Instr &in : f.block(b).instrs) {
                if (in.op == ir::Op::CallStatic || in.op == ir::Op::Spawn)
                    targets.push_back(in.aux);
                if (in.op != ir::Op::CallVirtual)
                    continue;
                for (vm::ClassId c = 0; c < prog.numClasses(); ++c)
                    targets.push_back(prog.tryResolveVirtual(c, in.aux));
            }
        }
        for (const vm::MethodId m : targets) {
            if (m != vm::NO_METHOD && seen.insert(m).second)
                work.push_back(m);
        }
    }
    return seen;
}

std::set<vm::MethodId>
moduleMethods(const ir::Module &mod)
{
    std::set<vm::MethodId> methods;
    for (const auto &[m, f] : mod.funcs)
        methods.insert(m);
    return methods;
}

/** Run the compiled module on the functional machine. */
hw::MachineResult
runOnMachine(const Program &prog, const ir::Module &mod)
{
    vm::Heap layout_heap(prog, 1 << 20);
    const hw::MachineProgram mp =
        hw::lowerModule(mod, hw::LayoutInfo::fromHeap(layout_heap));
    hw::Machine machine(mp, hw::HwConfig{});
    return machine.run();
}

/** Figures 2/3's addElement is inlined at both of main's call sites
 *  under `atomic`, so no call reaches it and it is not compiled. */
TEST(OptPrune, InlinedAddElementIsNotCompiled)
{
    const Program prog = bench::addElementSample().build(false);
    const vm::MethodId add_element = 0;
    ASSERT_EQ(prog.method(add_element).name, "addElement");
    Profile profile(prog);
    Interpreter interp(prog, &profile);
    ASSERT_TRUE(interp.run().completed);

    const core::Compiled compiled = core::compileProgram(
        prog, profile, core::CompilerConfig::atomic());
    EXPECT_EQ(compiled.mod.funcs.count(add_element), 0u);
    EXPECT_EQ(moduleMethods(compiled.mod),
              std::set<vm::MethodId>{prog.mainMethod});

    const hw::MachineResult res = runOnMachine(prog, compiled.mod);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.output, interp.output());
}

/** Dispatch through a polymorphic slot keeps every class's method in
 *  it, allocated or not, and a Spawn target stays too; a helper
 *  inlined at its only site and a method nothing calls are gone. */
TEST(OptPrune, VirtualSlotsAndSpawnTargetsStay)
{
    ProgramBuilder pb;
    const ClassId shape = pb.declareClass("Shape", {"dim", "done"});
    const int f_dim = pb.fieldIndex(shape, "dim");
    const int f_done = pb.fieldIndex(shape, "done");
    const ClassId square = pb.declareClass("Square", {}, shape);
    const ClassId circle = pb.declareClass("Circle", {}, shape);
    const ClassId hexagon = pb.declareClass("Hexagon", {}, shape);
    std::vector<MethodId> areas;
    for (const ClassId cls : {square, circle, hexagon}) {
        areas.push_back(pb.declareVirtual(cls, "area", 1));
        auto f = pb.define(areas.back());
        const Reg d = f.getField(f.self(), f_dim);
        f.ret(f.add(f.mul(d, d), f.constant(cls)));
        f.finish();
    }
    const MethodId helper = pb.declareMethod("helper", 1);
    {
        auto f = pb.define(helper);
        f.ret(f.add(f.arg(0), f.constant(1)));
        f.finish();
    }
    const MethodId unused = pb.declareMethod("unused", 0);
    {
        auto f = pb.define(unused);
        f.retVoid();
        f.finish();
    }
    const MethodId worker = pb.declareMethod("worker", 1);
    {
        auto f = pb.define(worker);
        f.monitorEnter(f.arg(0));
        f.putField(f.arg(0), f_done, f.constant(1));
        f.monitorExit(f.arg(0));
        f.retVoid();
        f.finish();
    }

    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg sq = mb.newObject(square);
    const Reg ci = mb.newObject(circle);
    const Reg i = mb.constant(0);
    const Reg n = mb.constant(200);
    const Reg one = mb.constant(1);
    const Reg sum = mb.constant(0);
    const Reg recv = mb.newReg();
    const Label loop = mb.newLabel();
    const Label done = mb.newLabel();
    const Label use_ci = mb.newLabel();
    const Label call = mb.newLabel();
    mb.bind(loop);
    mb.branchCmp(Bc::CmpGe, i, n, done);
    mb.putField(sq, f_dim, i);
    mb.putField(ci, f_dim, i);
    // Half the receivers are circles: no devirtualization.
    mb.branchIf(mb.binop(Bc::Rem, i, mb.constant(2)), use_ci);
    mb.mov(recv, sq);
    mb.jump(call);
    mb.bind(use_ci);
    mb.mov(recv, ci);
    mb.bind(call);
    mb.binopTo(Bc::Add, sum, sum,
               mb.callVirtual(pb.virtualSlot("area"), {recv}));
    mb.binopTo(Bc::Add, i, i, one);
    mb.jump(loop);
    mb.bind(done);
    mb.print(mb.callStatic(helper, {sum}));
    mb.putField(sq, f_done, mb.constant(0));
    mb.spawn(worker, {sq});
    const Label spin = mb.newLabel();
    const Reg flag = mb.newReg();
    mb.bind(spin);
    mb.safepoint();
    mb.monitorEnter(sq);
    mb.getFieldTo(flag, sq, f_done);
    mb.monitorExit(sq);
    mb.branchCmp(Bc::CmpEq, flag, mb.constant(0), spin);
    mb.print(flag);
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    const Program prog = pb.build();
    verifyOrDie(prog);

    Profile profile(prog);
    Interpreter interp(prog, &profile);
    ASSERT_TRUE(interp.run().completed);
    for (const core::CompilerConfig &config :
         {core::CompilerConfig::baseline(), core::CompilerConfig::atomic(),
          core::CompilerConfig::atomicAggressiveInline()}) {
        SCOPED_TRACE(config.name);
        const core::Compiled compiled =
            core::compileProgram(prog, profile, config);
        EXPECT_EQ(moduleMethods(compiled.mod),
                  (std::set<vm::MethodId>{areas[0], areas[1], areas[2],
                                          worker, mm}));
        const hw::MachineResult res = runOnMachine(prog, compiled.mod);
        ASSERT_TRUE(res.completed);
        EXPECT_EQ(res.output, interp.output());
    }
}

/** From inline+scalar on, every stage's module holds exactly the
 *  methods a call can reach: no dead function is compiled further,
 *  and no reachable one is missing. */
TEST(OptPrune, EveryStageHoldsExactlyTheCallClosure)
{
    core::CompilerConfig atomic = core::CompilerConfig::atomic();
    atomic.region = core::RegionConfig::smallBodies();
    atomic.postdomCheckElim = true;
    int checked = 0;
    int pruned = 0;
    for (const core::CompilerConfig &config :
         {core::CompilerConfig::baseline(), atomic,
          core::CompilerConfig::atomicAggressiveInline()}) {
        for (uint32_t mask : aregion::testing::canonicalMasks()) {
            for (uint64_t seed = 1; seed <= 12; ++seed) {
                SCOPED_TRACE(config.name + " mask " +
                             aregion::testing::maskName(mask) + " seed " +
                             std::to_string(seed));
                RandomProgramGen gen(seed, mask);
                const Program prog = renderProgram(gen.generate());
                Profile profile(prog);
                Interpreter interp(prog, &profile, 1ull << 22);
                try {
                    interp.run(1ull << 24);
                } catch (const vm::Trap &) {
                    // A trapping run still leaves a usable profile.
                }
                core::compileProgram(
                    prog, profile, config,
                    [&](core::Stage stage, const ir::Module &mod) {
                        if (stage == core::Stage::Translate) {
                            pruned += prog.numMethods();
                            return;
                        }
                        EXPECT_EQ(moduleMethods(mod), callClosure(mod))
                            << "after " << core::stageName(stage);
                        if (stage == core::Stage::InlineScalar)
                            pruned -= static_cast<int>(mod.funcs.size());
                        ++checked;
                    });
            }
        }
    }
    EXPECT_GT(checked, 1000);
    EXPECT_GT(pruned, 0) << "test premise: some function is dropped";
}

} // namespace
