/**
 * @file
 * Abort-storm resilience, end to end: a region that aborts on every
 * entry still lets the program finish with correct output, because
 * each abort runs the region's non-speculative alternate path, and
 * the machine's livelock guard (HwConfig::maxConsecutiveAborts) cuts
 * the wasted speculation short.
 */

#include <gtest/gtest.h>

#include "programs.hh"
#include "runtime/jit.hh"
#include "support/failpoint.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"

namespace {

using namespace aregion;
using namespace aregion::test;
namespace rt = aregion::runtime;
namespace core = aregion::core;
namespace fp = aregion::failpoint;
namespace keys = aregion::telemetry::keys;

uint64_t
counter(const char *key)
{
    return telemetry::Registry::global().counterValue(key);
}

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
    ASSERT_GT(clean.regionEntries, 0u);

    // Inject an unconditional explicit abort at every region entry
    // with an assert id the compiler never emitted, so no recompile
    // could repair it.
    auto &fps = fp::Registry::global();
    fps.setSeed(1234);
    ASSERT_EQ(fps.configure("machine.assert:p1=977"), 1);
    const auto storm = rt::runExperiment(prog, prog, config);

    config.hw.maxConsecutiveAborts = 16;
    const uint64_t trips0 = counter(keys::kMachineLivelockTrips);
    const auto guarded = rt::runExperiment(prog, prog, config);
    const uint64_t trips = counter(keys::kMachineLivelockTrips) - trips0;
    fps.disarmAll();

    // No region ever commits, yet the program finishes with the
    // clean output.
    ASSERT_TRUE(storm.completed);
    EXPECT_EQ(storm.outputChecksum, clean.outputChecksum);
    EXPECT_GT(storm.regionEntries, 0u);
    EXPECT_EQ(storm.regionAborts, storm.regionEntries);
    EXPECT_GT(storm.cycles, clean.cycles);

    // The livelock guard trips and stops re-entering the storming
    // region: same output, far fewer entries and cycles.
    ASSERT_TRUE(guarded.completed);
    EXPECT_EQ(guarded.outputChecksum, clean.outputChecksum);
    EXPECT_GT(trips, 0u);
    EXPECT_LT(guarded.regionEntries, storm.regionEntries);
    EXPECT_LT(guarded.cycles, storm.cycles);
}

} // namespace
