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
    // The rare path runs on 1 in 30 iterations (3.3%) here and 1 in
    // 300 (cold) in the profile variant.
    const Program measure = driftFilterProgram(8000, 30);
    const Program profile_prog = driftFilterProgram(8000, 300);

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
