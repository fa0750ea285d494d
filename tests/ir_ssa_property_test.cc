/**
 * @file
 * Property tests for SSA construction and destruction.
 *
 * Phi placement: on random CFGs with one variable, the blocks that
 * receive a phi must be exactly the liveness-pruned iterated
 * dominance frontier of the definition sites (the textbook
 * definition, computed naively here).
 *
 * Round trip: buildSSA followed by destroySSA preserves observable
 * behaviour on every sample program and on random generated
 * programs, and does not grow the instruction stream (coalescing
 * must absorb every phi the pruned construction introduces for
 * unoptimized translate output).
 */

#include <gtest/gtest.h>

#include <set>

#include "ir/dominators.hh"
#include "ir/evaluator.hh"
#include "ir/ssa.hh"
#include "ir/translate.hh"
#include "ir/verifier.hh"
#include "programs.hh"
#include "support/random.hh"
#include "testing/random_program.hh"
#include "vm/interpreter.hh"

namespace {

using namespace aregion;
using namespace aregion::test;
using aregion::testing::kLegacyObjects;
using aregion::testing::kLegacyScalar;
using aregion::testing::RandomProgramGen;
using aregion::testing::renderProgram;
namespace ir = aregion::ir;

/**
 * Random CFG over one variable v: block 0 is a dedicated entry (no
 * incoming edges), a random subset of blocks assigns v, every Branch
 * tests v and every Ret returns it.
 */
ir::Function
randomVarCfg(uint64_t seed, int n, std::vector<int> &defBlocksOut)
{
    Rng rng(seed);
    ir::Function f;
    f.name = "ssarand" + std::to_string(seed);
    const ir::Vreg v = f.newVreg();
    for (int i = 0; i < n; ++i)
        f.newBlock();
    auto interior = [&] {
        return 1 + static_cast<int>(
                       rng.below(static_cast<uint64_t>(n - 1)));
    };
    for (int b = 0; b < n; ++b) {
        ir::Block &blk = f.block(b);
        if (b > 0 && rng.toDouble() < 0.4) {
            ir::Instr cst;
            cst.op = ir::Op::Const;
            cst.dst = v;
            cst.imm = static_cast<int64_t>(b);
            blk.instrs.push_back(cst);
        }
        ir::Instr term;
        const double roll = rng.toDouble();
        if (b > 0 && (roll < 0.2 || b == n - 1)) {
            term.op = ir::Op::Ret;
            term.srcs = {v};
            blk.instrs.push_back(term);
        } else if (b == 0 || roll < 0.55) {
            term.op = ir::Op::Jump;
            blk.instrs.push_back(term);
            blk.succs = {interior()};
            blk.succCount = {1};
        } else {
            term.op = ir::Op::Branch;
            term.srcs = {v};
            blk.instrs.push_back(term);
            blk.succs = {interior(), interior()};
            blk.succCount = {1, 1};
        }
    }
    f.entry = 0;
    f.compact();    // ids become RPO positions; buildSSA re-compacts
                    // to the identity mapping
    defBlocksOut.clear();
    for (int b = 0; b < f.numBlocks(); ++b) {
        for (const ir::Instr &in : f.block(b).instrs) {
            if (in.dst == v)
                defBlocksOut.push_back(b);
        }
    }
    return f;
}

/** Naive boolean liveness of the single variable v = vreg 0. */
std::vector<bool>
naiveLiveIn(const ir::Function &f)
{
    const int n = f.numBlocks();
    std::vector<bool> liveIn(static_cast<size_t>(n), false);
    std::vector<bool> upUse(static_cast<size_t>(n), false);
    std::vector<bool> defs(static_cast<size_t>(n), false);
    for (int b = 0; b < n; ++b) {
        for (const ir::Instr &in : f.block(b).instrs) {
            const bool uses =
                std::count(in.srcs.begin(), in.srcs.end(), 0) > 0;
            if (uses && !defs[static_cast<size_t>(b)])
                upUse[static_cast<size_t>(b)] = true;
            if (in.dst == 0)
                defs[static_cast<size_t>(b)] = true;
        }
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (int b = n - 1; b >= 0; --b) {
            bool out = false;
            for (int s : f.block(b).succs)
                out = out || liveIn[static_cast<size_t>(s)];
            const bool in =
                upUse[static_cast<size_t>(b)] ||
                (out && !defs[static_cast<size_t>(b)]);
            if (in != liveIn[static_cast<size_t>(b)]) {
                liveIn[static_cast<size_t>(b)] = in;
                changed = true;
            }
        }
    }
    return liveIn;
}

class SsaPhiSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SsaPhiSweep, IrPhiPlacementMatchesPrunedIdf)
{
    std::vector<int> defBlocks;
    ir::Function f = randomVarCfg(GetParam(), 12, defBlocks);
    const int numBlocks = f.numBlocks();

    // Reference: liveness-pruned iterated dominance frontier.
    const ir::DominatorTree doms(f);
    const auto df = ir::dominanceFrontiers(f, doms);
    const auto liveIn = naiveLiveIn(f);
    std::set<int> expected;
    std::vector<int> worklist = defBlocks;
    std::set<int> queued(worklist.begin(), worklist.end());
    while (!worklist.empty()) {
        const int b = worklist.back();
        worklist.pop_back();
        for (int j : df[static_cast<size_t>(b)]) {
            if (expected.count(j) || !liveIn[static_cast<size_t>(j)])
                continue;
            expected.insert(j);
            if (queued.insert(j).second)
                worklist.push_back(j);
        }
    }

    ir::buildSSA(f);
    ASSERT_EQ(f.numBlocks(), numBlocks)
        << "buildSSA changed the CFG of a normalized function";
    std::set<int> actual;
    for (int b = 0; b < f.numBlocks(); ++b) {
        int phis = 0;
        for (const ir::Instr &in : f.block(b).instrs)
            phis += in.op == ir::Op::Phi;
        ASSERT_LE(phis, 1) << "two phis for one variable in b" << b;
        if (phis)
            actual.insert(b);
    }
    EXPECT_EQ(actual, expected) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomCfgs, SsaPhiSweep,
                         ::testing::Range<uint64_t>(1, 60));

/** Round-trip a whole module and check behaviour and size. */
void
checkRoundTrip(const Program &prog)
{
    Interpreter interp(prog);
    const auto ires = interp.run();
    ASSERT_TRUE(ires.completed);

    ir::Module mod = ir::translateProgram(prog);
    for (auto &[m, f] : mod.funcs) {
        const int before = f.countInstrs();
        ir::buildSSA(f);
        ir::destroySSA(f);
        ir::verifyOrDie(f);
        EXPECT_LE(f.countInstrs(), before)
            << "round trip grew " << f.name;
    }
    ir::Evaluator eval(mod);
    const auto eres = eval.run();
    ASSERT_TRUE(eres.completed);
    EXPECT_EQ(eval.output(), interp.output());
}

TEST(SsaRoundTrip, IrPreservesBehaviourOnAllSamples)
{
    for (const auto &s : allSamplePrograms()) {
        SCOPED_TRACE(s.name);
        checkRoundTrip(s.prog);
    }
}

TEST(SsaRoundTrip, IrPreservesBehaviourOnRandomScalarPrograms)
{
    for (uint64_t seed = 1; seed <= 25; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        RandomProgramGen gen(seed, kLegacyScalar);
        checkRoundTrip(renderProgram(gen.generate()));
    }
}

TEST(SsaRoundTrip, IrPreservesBehaviourOnRandomObjectPrograms)
{
    for (uint64_t seed = 100; seed <= 120; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        RandomProgramGen gen(seed, kLegacyObjects);
        checkRoundTrip(renderProgram(gen.generate()));
    }
}

} // namespace
