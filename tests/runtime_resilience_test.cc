/**
 * @file
 * Abort-storm resilience tests (runtime/resilience.hh): storm
 * detection, exponential backoff, method blacklisting, and the
 * end-to-end guarantee that a permanently-aborting region still
 * lets the program finish with correct output.
 */

#include <gtest/gtest.h>

#include "programs.hh"
#include "runtime/jit.hh"
#include "runtime/resilience.hh"
#include "support/failpoint.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"
#include "vm/interpreter.hh"

namespace {

using namespace aregion;
using namespace aregion::test;
namespace rt = aregion::runtime;
namespace core = aregion::core;
namespace hw = aregion::hw;
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

// ---------------------------------------------------------------
// Tracker unit tests (no machine involved).
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
    rt::ResilienceTracker tracker(policy);

    // Too few entries: not a storm regardless of rate.
    EXPECT_TRUE(tracker
                    .stormingRegions(resultWithRegion(1, 0, 8, 8))
                    .empty());
    // Plenty of entries, low abort rate: healthy.
    EXPECT_TRUE(tracker
                    .stormingRegions(resultWithRegion(1, 0, 100, 10))
                    .empty());
    // High rate with evidence: storming.
    const auto storms =
        tracker.stormingRegions(resultWithRegion(1, 0, 100, 80));
    ASSERT_EQ(storms.size(), 1u);
    EXPECT_EQ(*storms.begin(), (std::pair<int, int>{1, 0}));
}

TEST_F(ResilienceTest, TrackerBacksOffThenBlacklists)
{
    rt::ResiliencePolicy policy;
    policy.maxRecompiles = 2;
    rt::ResilienceTracker tracker(policy);
    const auto res = resultWithRegion(7, 0, 100, 100);

    // Drive rounds with no fresh overrides (an unfixable storm):
    // attempts burn through the budget under exponential cooldowns,
    // then the method lands on the blacklist.
    bool blacklisted = false;
    int rounds = 0;
    for (; rounds < tracker.roundCap(); ++rounds) {
        const auto storms = tracker.stormingRegions(res);
        if (storms.empty())
            break;
        const auto d = tracker.decide(storms, false);
        if (d.blacklistGrew) {
            blacklisted = true;
            break;
        }
        EXPECT_FALSE(d.recompile)
            << "no overrides -> no useful recompile";
    }
    EXPECT_TRUE(blacklisted);
    EXPECT_EQ(tracker.blacklisted().count(7), 1u);
    EXPECT_GT(tracker.backoffs(), 0u);
    // Cooldowns 2 and 4 plus the action rounds: blacklist lands
    // well within the cap but not immediately.
    EXPECT_GE(rounds, policy.maxRecompiles);
    EXPECT_LT(rounds, tracker.roundCap());
    // Once blacklisted the region no longer reads as storming.
    EXPECT_TRUE(tracker.stormingRegions(res).empty());
}

TEST_F(ResilienceTest, TrackerSpendsRecompilesWhenOverridesExist)
{
    rt::ResiliencePolicy policy;
    policy.maxRecompiles = 3;
    rt::ResilienceTracker tracker(policy);
    const auto res = resultWithRegion(3, 1, 64, 60);

    const auto d =
        tracker.decide(tracker.stormingRegions(res), true);
    EXPECT_TRUE(d.recompile);
    EXPECT_FALSE(d.blacklistGrew);
    EXPECT_TRUE(tracker.blacklisted().empty());

    // Immediately after an attempt the region is cooling down: the
    // next round must be a backoff, not another recompile.
    const uint64_t backoffs_before = tracker.backoffs();
    const auto d2 =
        tracker.decide(tracker.stormingRegions(res), true);
    EXPECT_FALSE(d2.recompile);
    EXPECT_GT(tracker.backoffs(), backoffs_before);
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
    storm.resilience.livelockBound = 16;

    const uint64_t storms0 = counter(keys::kResilienceStorms);
    const uint64_t black0 = counter(keys::kResilienceBlacklisted);
    const uint64_t recomp0 = counter(keys::kResilienceRecompiles);
    const uint64_t jit_recomp0 = counter(keys::kJitRecompiles);
    const uint64_t backoff0 = counter(keys::kResilienceBackoffs);
    const uint64_t trips0 = counter(keys::kMachineLivelockTrips);

    const auto metrics = rt::runExperiment(prog, prog, storm);
    fps.disarmAll();

    // Forward progress with correct output despite a region that
    // can never commit.
    ASSERT_TRUE(metrics.completed);
    EXPECT_EQ(metrics.outputChecksum, clean.outputChecksum);
    EXPECT_TRUE(metrics.recompiled);

    // The storm was observed, backed off on, and resolved by
    // blacklisting at least one method.
    EXPECT_GT(counter(keys::kResilienceStorms), storms0);
    EXPECT_GT(counter(keys::kResilienceBackoffs), backoff0);
    EXPECT_GE(counter(keys::kResilienceBlacklisted), black0 + 1);
    EXPECT_GE(counter(keys::kResilienceRecompiles), recomp0 + 1);
    // Every recompile the resilience loop spends is a jit.recompiles
    // too: the two counters move together.
    EXPECT_EQ(counter(keys::kJitRecompiles) - jit_recomp0,
              counter(keys::kResilienceRecompiles) - recomp0);

    // The livelock guard (armed via livelockBound) tripped during
    // the storming runs, bounding wasted speculative work.
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
    ProgramBuilder pb;
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg i = mb.constant(0);
    const Reg n = mb.constant(8000);
    const Reg one = mb.constant(1);
    const Reg k = mb.constant(10);      // 10% "cold" path
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

    ProgramBuilder pb2;
    const MethodId mm2 = pb2.declareMethod("main", 0);
    auto m2 = pb2.define(mm2);
    {
        const Reg i2 = m2.constant(0);
        const Reg n2 = m2.constant(8000);
        const Reg one2 = m2.constant(1);
        const Reg k2 = m2.constant(400);    // cold at profile time
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
