/**
 * @file
 * Abort-storm resilience tests (runtime/resilience.hh): storm
 * detection, method blacklisting, the adaptive repair kept under the
 * policy, and the end-to-end guarantee that a permanently-aborting
 * region still lets the program finish with correct output.
 */

#include <gtest/gtest.h>

#include "programs.hh"
#include "runtime/jit.hh"
#include "runtime/resilience.hh"
#include "support/failpoint.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"
#include "vm/interpreter.hh"
#include "workloads/workload.hh"

namespace {

using namespace aregion;
using namespace aregion::test;
namespace rt = aregion::runtime;
namespace core = aregion::core;
namespace hw = aregion::hw;
namespace fp = aregion::failpoint;
namespace keys = aregion::telemetry::keys;
namespace wl = aregion::workloads;

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

// ---------------------------------------------------------------
// Storm detection (no machine involved).
// ---------------------------------------------------------------

hw::MachineResult
resultWithRegion(int mid, int rid, uint64_t entries, uint64_t aborts)
{
    hw::MachineResult res;
    auto &stats = res.regions[{mid, rid}];
    stats.entries = entries;
    stats.commits = entries - aborts;
    stats.abortsByCause[static_cast<size_t>(hw::AbortCause::Explicit)] =
        aborts;
    return res;
}

TEST_F(ResilienceTest, TrackerDetectsOnlyRealStorms)
{
    rt::ResiliencePolicy policy;
    policy.stormAbortRate = 0.5;
    policy.minEntries = 16;
    const std::set<int> none;

    // Too few entries: not a storm regardless of rate.
    EXPECT_TRUE(rt::stormingRegions(resultWithRegion(1, 0, 8, 8),
                                    policy, none)
                    .empty());
    // Plenty of entries, low abort rate: healthy.
    EXPECT_TRUE(rt::stormingRegions(resultWithRegion(1, 0, 100, 10),
                                    policy, none)
                    .empty());
    // High rate with evidence: storming.
    const auto storming = resultWithRegion(1, 0, 100, 80);
    const auto storms = rt::stormingRegions(storming, policy, none);
    ASSERT_EQ(storms.size(), 1u);
    EXPECT_EQ(*storms.begin(), (std::pair<int, int>{1, 0}));
    // Once its method is blacklisted the region no longer storms.
    EXPECT_TRUE(rt::stormingRegions(storming, policy, {1}).empty());
}

// ---------------------------------------------------------------
// End-to-end pipeline tests.
// ---------------------------------------------------------------

TEST_F(ResilienceTest, QuietRunMatchesLegacyPipeline)
{
    const Program prog = addElementProgram(1500, 256);
    rt::ExperimentConfig plain;
    plain.compiler = core::CompilerConfig::atomic();
    const auto base = rt::runExperiment(prog, prog, plain);
    ASSERT_TRUE(base.completed);

    rt::ExperimentConfig guarded = plain;
    guarded.resilience.enabled = true;
    const auto with = rt::runExperiment(prog, prog, guarded);
    ASSERT_TRUE(with.completed);
    // No storm: no recompilation, identical execution and output.
    EXPECT_FALSE(with.recompiled);
    EXPECT_EQ(with.outputChecksum, base.outputChecksum);
    EXPECT_EQ(with.cycles, base.cycles);
    EXPECT_EQ(with.regionEntries, base.regionEntries);
}

TEST_F(ResilienceTest, PermanentStormIsBlacklistedAndCompletes)
{
    // A clean reference run for the expected output.
    const Program prog = addElementProgram(2500, 256);
    rt::ExperimentConfig plain;
    plain.compiler = core::CompilerConfig::atomic();
    const auto clean = rt::runExperiment(prog, prog, plain);
    ASSERT_TRUE(clean.completed);
    ASSERT_GT(clean.regionEntries, 0u);

    // Inject an unconditional explicit abort at every region entry
    // with an assert id the compiler never emitted: the adaptive
    // controller has no site to override, so only blacklisting can
    // end the storm.
    auto &fps = fp::Registry::global();
    fps.setSeed(1234);
    ASSERT_EQ(fps.configure("machine.assert:p1=977"), 1);

    rt::ExperimentConfig storm = plain;
    storm.resilience.enabled = true;
    storm.resilience.maxRecompiles = 2;
    storm.resilience.minEntries = 8;
    storm.hw.maxConsecutiveAborts = 16;

    const uint64_t storms0 = counter(keys::kResilienceStorms);
    const uint64_t black0 = counter(keys::kResilienceBlacklisted);
    const uint64_t recomp0 = counter(keys::kJitRecompiles);
    const uint64_t trips0 = counter(keys::kMachineLivelockTrips);

    const auto metrics = rt::runExperiment(prog, prog, storm);
    fps.disarmAll();

    // Forward progress with correct output despite a region that
    // can never commit.
    ASSERT_TRUE(metrics.completed);
    EXPECT_EQ(metrics.outputChecksum, clean.outputChecksum);
    EXPECT_TRUE(metrics.recompiled);

    // The storm was observed in the first round and resolved by one
    // recompile that blacklists its method; the second round finds
    // nothing storming.
    EXPECT_EQ(counter(keys::kResilienceStorms) - storms0, 1u);
    EXPECT_GE(counter(keys::kResilienceBlacklisted), black0 + 1);
    EXPECT_EQ(counter(keys::kJitRecompiles) - recomp0, 1u);

    // The livelock guard (HwConfig::maxConsecutiveAborts) tripped
    // during the storming run, bounding wasted speculative work.
    EXPECT_GT(counter(keys::kMachineLivelockTrips), trips0);

    // The final, measured run no longer speculates in the
    // blacklisted method, so it suffers no injected aborts there.
    EXPECT_LT(metrics.regionEntries, clean.regionEntries);
}

TEST_F(ResilienceTest, DriftStormIsCuredByOverridesNotBlacklist)
{
    // Profile says a branch is cold; the measured program takes it
    // ~10% of the time. With a storm threshold below that abort
    // rate, resilience must repair the region through the adaptive
    // controller's warm overrides — not condemn the method.
    const Program measure = driftFilterProgram(8000, 10);
    const Program profile_prog = driftFilterProgram(8000, 400);

    rt::ExperimentConfig plain;
    plain.compiler = core::CompilerConfig::atomic();
    const auto before =
        rt::runExperiment(profile_prog, measure, plain);
    ASSERT_TRUE(before.completed);
    ASSERT_GT(before.regionAborts, 100u)
        << "premise: drift causes an abort storm";

    rt::ExperimentConfig resil = plain;
    resil.resilience.enabled = true;
    resil.resilience.stormAbortRate = 0.05;
    resil.resilience.minEntries = 16;

    const uint64_t black0 = counter(keys::kResilienceBlacklisted);
    const auto after =
        rt::runExperiment(profile_prog, measure, resil);
    ASSERT_TRUE(after.completed);
    EXPECT_TRUE(after.recompiled);
    EXPECT_EQ(after.outputChecksum, before.outputChecksum);
    // Cured by overrides: aborts collapse, speculation survives.
    EXPECT_LT(after.regionAborts, before.regionAborts / 4);
    EXPECT_GT(after.regionEntries, 0u);
    EXPECT_EQ(counter(keys::kResilienceBlacklisted), black0);
}

TEST_F(ResilienceTest, ResilienceKeepsAdaptiveRepair)
{
    // pmd's drift aborts on about 8% of region entries, far below the
    // storm rate. Enabling the resilience policy on top of adaptive
    // recompilation must not take the controller's repair away.
    const wl::Workload &pmd = wl::workloadByName("pmd");
    const Program profile_prog = pmd.build(true);
    const Program measure = pmd.build(false);

    rt::ExperimentConfig adaptive;
    adaptive.compiler = core::CompilerConfig::atomicAggressiveInline();
    adaptive.adaptiveRecompile = true;
    const auto alone =
        rt::runExperiment(profile_prog, measure, adaptive, pmd.samples);
    ASSERT_TRUE(alone.completed);
    ASSERT_TRUE(alone.recompiled);

    rt::ExperimentConfig both = adaptive;
    both.resilience.enabled = true;
    const auto with =
        rt::runExperiment(profile_prog, measure, both, pmd.samples);
    ASSERT_TRUE(with.completed);
    EXPECT_TRUE(with.recompiled);
    EXPECT_LE(with.abortPct, alone.abortPct);
    EXPECT_EQ(with.outputChecksum, alone.outputChecksum);
}

TEST_F(ResilienceTest, BlacklistedMethodSkipsRegionFormation)
{
    const Program prog = addElementProgram(800, 128);
    vm::Profile profile(prog);
    {
        vm::Interpreter interp(prog, &profile);
        ASSERT_TRUE(interp.run().completed);
    }
    core::CompilerConfig cfg = core::CompilerConfig::atomic();
    const auto normal = core::compileProgram(prog, profile, cfg);
    ASSERT_GT(normal.stats.regions.regionsFormed, 0);
    ASSERT_EQ(normal.stats.funcsBlacklisted, 0);

    // Blacklist every method: no regions may form anywhere.
    for (int m = 0; m < prog.numMethods(); ++m)
        cfg.region.blacklistMethods.insert(m);
    const auto gated = core::compileProgram(prog, profile, cfg);
    EXPECT_EQ(gated.stats.regions.regionsFormed, 0);
    EXPECT_GT(gated.stats.funcsBlacklisted, 0);
}

} // namespace
