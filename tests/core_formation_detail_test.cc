/**
 * @file
 * Structural detail tests for region formation: unroll chaining,
 * exit-block shape, warm overrides, formation bounds, boundary
 * tracing at calls and irrevocable operations, and SLE balance
 * rules.
 */

#include <gtest/gtest.h>

#include "core/compiler.hh"
#include "core/lock_elision.hh"
#include "core/region_formation.hh"
#include "ir/evaluator.hh"
#include "ir/translate.hh"
#include "ir/verifier.hh"
#include "opt/pass.hh"
#include "programs.hh"
#include "vm/interpreter.hh"

namespace {

using namespace aregion;
using namespace aregion::test;
namespace ir = aregion::ir;
namespace core = aregion::core;

/** Profile + translate + optimize one program's main. */
ir::Module
prepare(const Program &prog, Profile &profile)
{
    Interpreter interp(prog, &profile);
    AREGION_ASSERT(interp.run().completed, "profile run failed");
    ir::Module mod = ir::translateProgram(prog, &profile);
    opt::OptContext ctx;
    ctx.profile = &profile;
    opt::optimizeModule(mod, ctx);
    return mod;
}

TEST(FormationDetail, UnrolledCopiesChainWithoutIntermediateCommits)
{
    // A small hot loop: the region should contain K > 1 copies but
    // only the final copy exits through aregion_end.
    const Program prog = arithLoopProgram();
    Profile profile(prog);
    ir::Module mod = prepare(prog, profile);
    ir::Function &f = mod.funcs.at(prog.mainMethod);

    core::RegionConfig config;
    config.minRegionInstrs = 4;
    const auto stats = core::formRegions(f, config);
    ir::verifyOrDie(f);
    ASSERT_GT(stats.regionsFormed, 0);
    EXPECT_GT(stats.unrolledRegions, 0);

    // Count aregion_end per region: exits exist, and the number of
    // region blocks exceeds one copy's worth.
    for (const auto &region : f.regions) {
        int ends = 0;
        int blocks = 0;
        for (int b = 0; b < f.numBlocks(); ++b) {
            if (f.block(b).regionId != region.id)
                continue;
            ++blocks;
            for (const auto &in : f.block(b).instrs)
                ends += in.op == ir::Op::AtomicEnd;
        }
        EXPECT_GT(ends, 0);
        EXPECT_GT(blocks, 2);
    }
}

TEST(FormationDetail, ExitBlocksAreEndPlusJump)
{
    const Program prog = addElementProgram(1000, 128);
    Profile profile(prog);
    ir::Module mod = prepare(prog, profile);
    ir::Function &f = mod.funcs.at(prog.mainMethod);
    core::formRegions(f, core::RegionConfig{});
    ir::verifyOrDie(f);

    for (int b = 0; b < f.numBlocks(); ++b) {
        const ir::Block &blk = f.block(b);
        for (size_t i = 0; i < blk.instrs.size(); ++i) {
            if (blk.instrs[i].op != ir::Op::AtomicEnd)
                continue;
            // aregion_end is followed only by the jump out.
            EXPECT_EQ(i + 2, blk.instrs.size());
            EXPECT_EQ(blk.terminator().op, ir::Op::Jump);
        }
    }
}

TEST(FormationDetail, WarmOverridesKeepBranches)
{
    const Program prog = addElementProgram(1500, 512);
    Profile profile(prog);

    // First formation: collect every assert origin.
    ir::Module mod1 = prepare(prog, profile);
    ir::Function &f1 = mod1.funcs.at(prog.mainMethod);
    const auto stats1 = core::formRegions(f1, core::RegionConfig{});
    ASSERT_GT(stats1.assertsCreated, 0);
    std::set<std::pair<int, int>> origins;
    for (const auto &r : f1.regions) {
        for (const auto &[id, origin] : r.abortOrigins)
            origins.insert(origin);
    }
    ASSERT_FALSE(origins.empty());

    // Second formation with every origin overridden: no asserts.
    ir::Module mod2 = prepare(prog, profile);
    ir::Function &f2 = mod2.funcs.at(prog.mainMethod);
    core::RegionConfig config;
    config.warmOverrides = origins;
    const auto stats2 = core::formRegions(f2, config);
    ir::verifyOrDie(f2);
    EXPECT_EQ(stats2.assertsCreated, 0);
}

TEST(FormationDetail, MinRegionInstrsSuppressesTinyRegions)
{
    const Program prog = arithLoopProgram();
    Profile profile(prog);
    ir::Module mod = prepare(prog, profile);
    ir::Function &f = mod.funcs.at(prog.mainMethod);
    core::RegionConfig config;
    config.minRegionInstrs = 10000;     // nothing qualifies
    const auto stats = core::formRegions(f, config);
    EXPECT_EQ(stats.regionsFormed, 0);
    EXPECT_TRUE(f.regions.empty());
}

TEST(FormationDetail, MaxRegionBlocksBoundsReplication)
{
    const Program prog = dispatchProgram();
    Profile profile(prog);
    ir::Module mod = prepare(prog, profile);
    ir::Function &f = mod.funcs.at(prog.mainMethod);
    core::RegionConfig config;
    config.maxRegionBlocks = 3;
    config.maxUnrollFactor = 1;
    const auto stats = core::formRegions(f, config);
    ir::verifyOrDie(f);
    for (const auto &region : f.regions) {
        int blocks = 0;
        for (int b = 0; b < f.numBlocks(); ++b)
            blocks += f.block(b).regionId == region.id;
        // entry + cloned hot set (<= bound) + exit blocks; the hot
        // set itself respects the bound.
        EXPECT_LE(blocks, 3 + 1 + 8) << "region " << region.id;
    }
    (void)stats;
}

TEST(FormationDetail, SleSkipsUnbalancedMonitors)
{
    // A region containing an enter without a matching exit must keep
    // its monitor instructions.
    ir::Function f;
    f.name = "unbalanced";
    const ir::Vreg obj = f.newVreg();
    auto &entry = f.newBlock();
    auto &body = f.newBlock();
    auto &exitb = f.newBlock();
    auto mk = [](ir::Op op, ir::Vreg dst, std::vector<ir::Vreg> srcs,
                 int aux = 0) {
        ir::Instr in;
        in.op = op;
        in.dst = dst;
        in.srcs = std::move(srcs);
        in.aux = aux;
        return in;
    };
    entry.instrs = {mk(ir::Op::AtomicBegin, ir::NO_VREG, {}, 0),
                    mk(ir::Op::Jump, ir::NO_VREG, {})};
    entry.succs = {body.id, exitb.id};
    entry.succCount = {1, 0};
    entry.regionId = 0;
    body.instrs = {mk(ir::Op::Const, obj, {}),
                   mk(ir::Op::MonitorEnter, ir::NO_VREG, {obj}),
                   mk(ir::Op::AtomicEnd, ir::NO_VREG, {}, 0),
                   mk(ir::Op::Jump, ir::NO_VREG, {})};
    body.instrs[0].imm = 100;
    body.succs = {exitb.id};
    body.succCount = {1};
    body.regionId = 0;
    exitb.instrs = {mk(ir::Op::Ret, ir::NO_VREG, {})};
    f.entry = entry.id;
    ir::RegionInfo region;
    region.id = 0;
    region.entryBlock = entry.id;
    region.altBlock = exitb.id;
    f.regions.push_back(region);

    const auto stats = core::elideLocks(f);
    EXPECT_EQ(stats.pairsElided, 0);
    int enters = 0;
    for (const auto &in : f.block(body.id).instrs)
        enters += in.op == ir::Op::MonitorEnter;
    EXPECT_EQ(enters, 1);
}

TEST(FormationDetail, RegionsNeverContainIrrevocableOps)
{
    for (const auto &s : allSamplePrograms()) {
        SCOPED_TRACE(s.name);
        Profile profile(s.prog);
        Interpreter interp(s.prog, &profile);
        ASSERT_TRUE(interp.run().completed);
        core::Compiled compiled = core::compileProgram(
            s.prog, profile, core::CompilerConfig::atomic());
        for (const auto &[m, f] : compiled.mod.funcs) {
            for (int b = 0; b < f.numBlocks(); ++b) {
                if (f.block(b).regionId < 0)
                    continue;
                for (const auto &in : f.block(b).instrs) {
                    EXPECT_NE(in.op, ir::Op::Print);
                    EXPECT_NE(in.op, ir::Op::Spawn);
                    EXPECT_NE(in.op, ir::Op::Marker);
                    EXPECT_NE(in.op, ir::Op::CallStatic);
                    EXPECT_NE(in.op, ir::Op::CallVirtual);
                }
            }
        }
    }
}

TEST(FormationDetail, AbortOriginsCoverEveryAssert)
{
    const Program prog = addElementProgram(1500, 512);
    Profile profile(prog);
    ir::Module mod = prepare(prog, profile);
    ir::Function &f = mod.funcs.at(prog.mainMethod);
    core::formRegions(f, core::RegionConfig{});
    for (int b = 0; b < f.numBlocks(); ++b) {
        const ir::Block &blk = f.block(b);
        if (blk.regionId < 0)
            continue;
        const auto &origins =
            f.regions.at(static_cast<size_t>(blk.regionId))
                .abortOrigins;
        for (const auto &in : blk.instrs) {
            if (in.op == ir::Op::Assert) {
                EXPECT_TRUE(origins.count(in.aux))
                    << "assert " << in.aux << " lacks an origin";
            }
        }
    }
}

} // namespace
