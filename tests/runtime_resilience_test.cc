/**
 * @file
 * Abort-storm resilience, end to end: a region that aborts on every
 * entry still lets the program finish with correct output, because
 * each abort runs the region's non-speculative alternate path. The
 * exact counts are the ones docs/RESILIENCE.md quotes.
 */

#include <gtest/gtest.h>

#include "programs.hh"
#include "runtime/jit.hh"
#include "support/failpoint.hh"

namespace {

using namespace aregion;
using namespace aregion::test;
namespace rt = aregion::runtime;
namespace core = aregion::core;
namespace fp = aregion::failpoint;

class ResilienceTest : public ::testing::Test
{
  protected:
    void SetUp() override { fp::Registry::global().disarmAll(); }
    void TearDown() override { fp::Registry::global().disarmAll(); }
};

TEST_F(ResilienceTest, PermanentStormCompletes)
{
    // A clean reference run for the expected output.
    const Program prog = addElementProgram(2500, 256);
    rt::ExperimentConfig config;
    config.compiler = core::CompilerConfig::atomic();
    const auto clean = rt::runExperiment(prog, prog, config);
    ASSERT_TRUE(clean.completed);
    EXPECT_EQ(clean.regionEntries, 701u);
    EXPECT_EQ(clean.cycles, 22'259u);
    EXPECT_EQ(clean.outputChecksum, 4330625097497500191u);

    // Inject an unconditional explicit abort at every region entry
    // with an assert id the compiler never emitted, so no recompile
    // could repair it.
    auto &fps = fp::Registry::global();
    fps.setSeed(1234);
    ASSERT_EQ(fps.configure("machine.assert:p1=977"), 1);
    const auto storm = rt::runExperiment(prog, prog, config);
    fps.disarmAll();

    // No region ever commits, yet the program finishes with the
    // clean output.
    ASSERT_TRUE(storm.completed);
    EXPECT_EQ(storm.outputChecksum, clean.outputChecksum);
    EXPECT_EQ(storm.regionEntries, 2'570u);
    EXPECT_EQ(storm.regionAborts, storm.regionEntries);
    EXPECT_EQ(storm.cycles, 74'472u);
}

} // namespace
