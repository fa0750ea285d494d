/**
 * @file
 * Parameterized property sweeps across the whole stack: for many
 * random programs, configurations, fault injections, and hardware
 * geometries, the compiled machine execution must match the
 * interpreter bit-for-bit.
 */

#include <gtest/gtest.h>

#include "core/compiler.hh"
#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "hw/timing.hh"
#include "ir/evaluator.hh"
#include "programs.hh"
#include "testing/random_program.hh"
#include "vm/interpreter.hh"

namespace {

using namespace aregion;
using namespace aregion::test;
using aregion::testing::kLegacyObjects;
using aregion::testing::kLegacyScalar;
using aregion::testing::RandomProgramGen;
using aregion::testing::renderProgram;
namespace core = aregion::core;
namespace hw = aregion::hw;

hw::MachineProgram
compileToMachine(const Program &prog,
                 const core::CompilerConfig &config)
{
    Profile profile(prog);
    Interpreter interp(prog, &profile);
    interp.run();
    core::Compiled compiled =
        core::compileProgram(prog, profile, config);
    vm::Heap layout_heap(prog, 1 << 20);
    return hw::lowerModule(compiled.mod,
                           hw::LayoutInfo::fromHeap(layout_heap));
}

/** Sweep 1: random-program seeds x both compilers, full stack. */
class SeedSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SeedSweep, MachineMatchesInterpreter)
{
    RandomProgramGen gen(GetParam(), kLegacyScalar);
    const Program prog = renderProgram(gen.generate());
    Interpreter check(prog);
    ASSERT_TRUE(check.run().completed);

    for (bool atomic : {false, true}) {
        core::CompilerConfig config =
            atomic ? core::CompilerConfig::atomic()
                   : core::CompilerConfig::baseline();
        config.region = core::RegionConfig::smallBodies();
        const auto mp = compileToMachine(prog, config);
        hw::Machine machine(mp, hw::HwConfig{});
        const auto res = machine.run();
        ASSERT_TRUE(res.completed);
        EXPECT_EQ(res.output, check.output())
            << (atomic ? "atomic" : "baseline");
    }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, SeedSweep,
                         ::testing::Range<uint64_t>(300, 324));

/** Sweep 1b: object-oriented random programs (virtual dispatch,
 *  monitors, instanceof) through both compilers. */
class OoSeedSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(OoSeedSweep, MachineMatchesInterpreter)
{
    RandomProgramGen gen(GetParam(), kLegacyObjects);
    const Program prog = renderProgram(gen.generate());
    Interpreter check(prog);
    ASSERT_TRUE(check.run().completed);

    for (bool atomic : {false, true}) {
        core::CompilerConfig config =
            atomic ? core::CompilerConfig::atomicAggressiveInline()
                   : core::CompilerConfig::baseline();
        config.region = core::RegionConfig::smallBodies();
        const auto mp = compileToMachine(prog, config);
        hw::Machine machine(mp, hw::HwConfig{});
        const auto res = machine.run();
        ASSERT_TRUE(res.completed);
        EXPECT_EQ(res.output, check.output())
            << (atomic ? "atomic" : "baseline");
    }
}

INSTANTIATE_TEST_SUITE_P(OoRandomPrograms, OoSeedSweep,
                         ::testing::Range<uint64_t>(500, 520));

/** Sweep 2: forced abort periods in the IR evaluator. */
class AbortPeriodSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(AbortPeriodSweep, ForcedAbortsAreInvisible)
{
    const Program prog = addElementProgram(800, 128);
    Interpreter check(prog);
    ASSERT_TRUE(check.run().completed);

    Profile profile(prog);
    Interpreter prof_run(prog, &profile);
    ASSERT_TRUE(prof_run.run().completed);
    core::Compiled compiled = core::compileProgram(
        prog, profile, core::CompilerConfig::atomic());

    ir::Evaluator eval(compiled.mod);
    eval.forceAbortPeriod = GetParam();
    const auto res = eval.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(eval.output(), check.output());
    if (GetParam() > 0) {
        EXPECT_GT(res.regionAborts, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Periods, AbortPeriodSweep,
                         ::testing::Values(0, 1, 2, 3, 7, 64));

/** Sweep 3: hostile hardware geometries (tiny speculative caches,
 *  aggressive interrupts) never change observable behaviour. */
struct HwGeometry
{
    int l1Lines;
    int l1Assoc;
    uint64_t interruptPeriod;
};

class GeometrySweep : public ::testing::TestWithParam<HwGeometry>
{
};

TEST_P(GeometrySweep, BestEffortHardwareIsTransparent)
{
    const Program prog = addElementProgram(1200, 128);
    Interpreter check(prog);
    ASSERT_TRUE(check.run().completed);

    const auto mp = compileToMachine(
        prog, core::CompilerConfig::atomic());
    hw::HwConfig config;
    config.l1Lines = GetParam().l1Lines;
    config.l1Assoc = GetParam().l1Assoc;
    config.interruptPeriod = GetParam().interruptPeriod;
    hw::Machine machine(mp, config);
    const auto res = machine.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.output, check.output());
    EXPECT_EQ(res.regionEntries,
              res.regionCommits + res.regionAborts);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometrySweep,
    ::testing::Values(HwGeometry{512, 4, 4'000'000},
                      HwGeometry{64, 4, 4'000'000},
                      HwGeometry{16, 2, 4'000'000},
                      HwGeometry{8, 1, 4'000'000},
                      HwGeometry{512, 4, 500},
                      HwGeometry{512, 4, 97},
                      HwGeometry{16, 2, 333}));

/** Sweep 4: timing configurations only change cycle counts, never
 *  functional results, and cycles stay ordered by machine capability
 *  on a compute-heavy workload. */
class TimingSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(TimingSweep, TimingNeverChangesResults)
{
    RandomProgramGen gen(777, kLegacyScalar);
    const Program prog = renderProgram(gen.generate());
    Interpreter check(prog);
    ASSERT_TRUE(check.run().completed);

    hw::TimingConfig configs[5] = {
        hw::TimingConfig::baseline(), hw::TimingConfig::stallBegin(),
        hw::TimingConfig::singleInflight(),
        hw::TimingConfig::twoWide(), hw::TimingConfig::twoWideHalf()};
    const auto mp = compileToMachine(
        prog, core::CompilerConfig::atomic());
    hw::TimingModel timing(configs[GetParam()]);
    hw::Machine machine(mp, hw::HwConfig{}, &timing);
    const auto res = machine.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.output, check.output());
    EXPECT_GT(timing.cycles(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Machines, TimingSweep,
                         ::testing::Range(0, 5));

/** Sweep 5: all compiler feature combinations stay equivalent. */
class FeatureSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(FeatureSweep, FeatureCombinationsPreserveBehaviour)
{
    const int bits = GetParam();
    core::CompilerConfig config = core::CompilerConfig::atomic();
    config.sle = bits & 1;
    config.postdomCheckElim = bits & 2;
    config.elideSafepointsInRegions = bits & 4;
    config.inlineMultiplier = (bits & 8) ? 5.0 : 1.0;

    for (const auto &s : allSamplePrograms()) {
        SCOPED_TRACE(s.name);
        Interpreter check(s.prog);
        ASSERT_TRUE(check.run().completed);
        const auto mp = compileToMachine(s.prog, config);
        hw::Machine machine(mp, hw::HwConfig{});
        const auto res = machine.run();
        ASSERT_TRUE(res.completed);
        EXPECT_EQ(res.output, check.output());
    }
}

INSTANTIATE_TEST_SUITE_P(Features, FeatureSweep,
                         ::testing::Range(0, 16));

} // namespace
