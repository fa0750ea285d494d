/**
 * @file
 * Runtime pipeline tests.
 */

#include <gtest/gtest.h>

#include "programs.hh"
#include "runtime/jit.hh"

namespace {

using namespace aregion;
using namespace aregion::test;
namespace rt = aregion::runtime;
namespace core = aregion::core;
namespace hw = aregion::hw;

TEST(Jit, PipelineProducesConsistentMetrics)
{
    const Program prog = addElementProgram(2000, 256);
    rt::ExperimentConfig config;
    config.compiler = core::CompilerConfig::atomic();
    const auto metrics = rt::runExperiment(prog, prog, config);
    ASSERT_TRUE(metrics.completed);
    EXPECT_GT(metrics.cycles, 0u);
    EXPECT_GT(metrics.retiredUops, 0u);
    EXPECT_GE(metrics.executedUops, metrics.retiredUops);
    EXPECT_GT(metrics.coverage, 0.0);
    EXPECT_LE(metrics.coverage, 1.0);
    EXPECT_GT(metrics.uniqueRegions, 0);
    EXPECT_GT(metrics.avgRegionSize, 0.0);
}

TEST(Jit, ChecksumStableAcrossConfigs)
{
    const Program prog = addElementProgram(1500, 256);
    uint64_t checksum = 0;
    for (int i = 0; i < 4; ++i) {
        rt::ExperimentConfig config;
        switch (i) {
          case 0:
            config.compiler = core::CompilerConfig::baseline();
            break;
          case 1:
            config.compiler = core::CompilerConfig::atomic();
            break;
          case 2:
            config.compiler =
                core::CompilerConfig::baselineAggressiveInline();
            break;
          case 3:
            config.compiler =
                core::CompilerConfig::atomicAggressiveInline();
            break;
        }
        const auto metrics = rt::runExperiment(prog, prog, config);
        ASSERT_TRUE(metrics.completed);
        if (i == 0)
            checksum = metrics.outputChecksum;
        else
            EXPECT_EQ(metrics.outputChecksum, checksum);
    }
}

TEST(Jit, AdaptiveRecompileReducesAborts)
{
    // A drifting program (cold branch at profile time, warm at
    // measurement): adaptive recompilation must fire and cut aborts.
    ProgramBuilder pb;
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg i = mb.constant(0);
    const Reg n = mb.constant(8000);
    const Reg one = mb.constant(1);
    const Reg k = mb.constant(30);      // 3.3% "cold" path
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
    const Program measure = pb.build();
    verifyOrDie(measure);

    // Profile variant: same code, rare path at 1/300 (cold).
    ProgramBuilder pb2;
    const MethodId mm2 = pb2.declareMethod("main", 0);
    auto m2 = pb2.define(mm2);
    {
        const Reg i2 = m2.constant(0);
        const Reg n2 = m2.constant(8000);
        const Reg one2 = m2.constant(1);
        const Reg k2 = m2.constant(300);
        const Reg sum2 = m2.constant(0);
        const Label loop2 = m2.newLabel();
        const Label rare2 = m2.newLabel();
        const Label next2 = m2.newLabel();
        const Label done2 = m2.newLabel();
        m2.bind(loop2);
        m2.branchCmp(Bc::CmpGe, i2, n2, done2);
        const Reg rem2 = m2.binop(Bc::Rem, i2, k2);
        const Reg zero2 = m2.constant(0);
        const Reg hit2 = m2.cmp(Bc::CmpEq, rem2, zero2);
        m2.branchIf(hit2, rare2);
        m2.binopTo(Bc::Add, sum2, sum2, i2);
        m2.jump(next2);
        m2.bind(rare2);
        m2.binopTo(Bc::Add, sum2, sum2, one2);
        m2.jump(next2);
        m2.bind(next2);
        m2.binopTo(Bc::Add, i2, i2, one2);
        m2.safepoint();
        m2.jump(loop2);
        m2.bind(done2);
        m2.print(sum2);
        m2.retVoid();
        m2.finish();
    }
    pb2.setMain(mm2);
    const Program profile_prog = pb2.build();
    verifyOrDie(profile_prog);

    rt::ExperimentConfig no_adapt;
    no_adapt.compiler = core::CompilerConfig::atomic();
    const auto before = rt::runExperiment(profile_prog, measure,
                                          no_adapt);
    ASSERT_TRUE(before.completed);
    ASSERT_GT(before.regionAborts, 50u)
        << "premise: drift causes aborts";

    rt::ExperimentConfig adapt = no_adapt;
    adapt.adaptiveRecompile = true;
    const auto after = rt::runExperiment(profile_prog, measure, adapt);
    ASSERT_TRUE(after.completed);
    EXPECT_TRUE(after.recompiled);
    EXPECT_LT(after.regionAborts, before.regionAborts / 4);
    EXPECT_LT(after.cycles, before.cycles);
    EXPECT_EQ(after.outputChecksum, before.outputChecksum);
}

} // namespace
