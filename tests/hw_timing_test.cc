/**
 * @file
 * Timing model tests: predictor learning, cache behaviour, and the
 * pipeline model's qualitative properties (width scaling,
 * dependence serialization, mispredict penalties, region-primitive
 * implementation costs from Figure 9).
 */

#include <gtest/gtest.h>

#include "core/compiler.hh"
#include "support/random.hh"
#include "hw/branch_predictor.hh"
#include "hw/cache.hh"
#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "hw/timing.hh"
#include "programs.hh"
#include "vm/interpreter.hh"

namespace {

using namespace aregion;
using namespace aregion::test;
namespace core = aregion::core;
namespace hw = aregion::hw;

TEST(Predictor, LearnsBiasedBranch)
{
    hw::BranchPredictor bp;
    int wrong = 0;
    for (int i = 0; i < 1000; ++i) {
        const bool taken = i % 100 != 0;    // 99% taken
        wrong += bp.predictTaken(0x400) != taken;
        bp.update(0x400, taken);
    }
    EXPECT_LT(wrong, 40);
}

TEST(Predictor, GshareLearnsAlternatingPattern)
{
    hw::BranchPredictor bp;
    int wrong_tail = 0;
    for (int i = 0; i < 2000; ++i) {
        const bool taken = i % 2 == 0;
        const bool predicted = bp.predictTaken(0x800);
        if (i > 1000)
            wrong_tail += predicted != taken;
        bp.update(0x800, taken);
    }
    EXPECT_LT(wrong_tail, 50);  // history-based component learns it
}

TEST(Predictor, IndirectTargetTable)
{
    hw::BranchPredictor bp;
    bp.updateTarget(0x1000, 0xabcd);
    EXPECT_EQ(bp.predictTarget(0x1000), 0xabcdu);
    bp.updateTarget(0x1000, 0xef01);
    EXPECT_EQ(bp.predictTarget(0x1000), 0xef01u);
}

TEST(Cache, HitsAfterInstall)
{
    hw::Cache cache(64, 4);
    EXPECT_FALSE(cache.access(10));
    EXPECT_TRUE(cache.access(10));
    EXPECT_EQ(cache.misses, 1u);
    EXPECT_EQ(cache.hits, 1u);
}

TEST(Cache, LruEvictsWithinSet)
{
    hw::Cache cache(8, 2);      // 4 sets, 2 ways
    // Lines 0, 4, 8 map to set 0; capacity 2.
    cache.access(0);
    cache.access(4);
    cache.access(8);            // evicts 0
    EXPECT_FALSE(cache.access(0));
    EXPECT_TRUE(cache.access(8));
}

TEST(CacheHierarchy, LatencyOrdering)
{
    // One line: the next-line prefetcher acts on a second miss.
    hw::CacheHierarchy h(64, 1024);
    const int miss = h.accessLatency(0x5000);
    const int hit = h.accessLatency(0x5000);
    EXPECT_EQ(miss, 400);
    EXPECT_EQ(hit, 4);
}

/** Feed a synthetic trace of independent ALU uops. */
uint64_t
cyclesForAluStream(int width, uint64_t count, bool dependent)
{
    hw::TimingConfig cfg;
    cfg.width = width;
    hw::TimingModel tm(cfg);
    for (uint64_t i = 1; i <= count; ++i) {
        hw::TraceUop u;
        u.seq = i;
        u.pc = 0x1000 + i % 64;
        u.lat = hw::LatClass::Int;
        if (dependent && i > 1) {
            u.numSrcs = 1;
            u.srcSeq[0] = i - 1;
        }
        tm.uop(u);
    }
    return tm.cycles();
}

TEST(Timing, WidthBoundsIndependentThroughput)
{
    const uint64_t c4 = cyclesForAluStream(4, 10000, false);
    const uint64_t c2 = cyclesForAluStream(2, 10000, false);
    // Independent stream: ~count/width cycles.
    EXPECT_NEAR(static_cast<double>(c4), 2500.0, 300.0);
    EXPECT_NEAR(static_cast<double>(c2), 5000.0, 500.0);
}

TEST(Timing, DependencyChainSerializesExecution)
{
    const uint64_t ilp = cyclesForAluStream(4, 5000, false);
    const uint64_t chain = cyclesForAluStream(4, 5000, true);
    EXPECT_GT(chain, 3 * ilp);  // one per cycle vs width per cycle
}

TEST(Timing, MispredictsCostPenalty)
{
    auto run = [&](bool predictable) {
        hw::TimingModel tm(hw::TimingConfig::baseline());
        Rng rng(7);
        for (uint64_t i = 1; i <= 4000; ++i) {
            hw::TraceUop u;
            u.seq = i;
            u.pc = 0x2000;
            u.lat = hw::LatClass::Branch;
            u.isBranch = true;
            u.taken = predictable ? true : rng.chance(0.5);
            tm.uop(u);
        }
        return tm.cycles();
    };
    const uint64_t good = run(true);
    const uint64_t bad = run(false);
    EXPECT_GT(bad, 2 * good);
}

TEST(Timing, SerializingUopsDrainThePipeline)
{
    auto run = [&](bool serial) {
        hw::TimingModel tm(hw::TimingConfig::baseline());
        for (uint64_t i = 1; i <= 2000; ++i) {
            hw::TraceUop u;
            u.seq = i;
            u.pc = 0x3000 + i % 16;
            if (serial && i % 10 == 0) {
                u.lat = hw::LatClass::Serial;
                u.serializing = true;
            }
            tm.uop(u);
        }
        return tm.cycles();
    };
    EXPECT_GT(run(true), 2 * run(false));
}

/** End-to-end: machine + timing on a compiled program. */
uint64_t
endToEndCycles(const Program &prog, const core::CompilerConfig &cc,
               const hw::TimingConfig &tc)
{
    Profile profile(prog);
    Interpreter interp(prog, &profile);
    AREGION_ASSERT(interp.run().completed, "profile run");
    core::Compiled compiled = core::compileProgram(prog, profile, cc);
    vm::Heap layout_heap(prog, 1 << 20);
    const auto mp = hw::lowerModule(
        compiled.mod, hw::LayoutInfo::fromHeap(layout_heap));
    hw::TimingModel tm(tc);
    hw::Machine machine(mp, hw::HwConfig{}, &tm);
    const auto res = machine.run();
    AREGION_ASSERT(res.completed, "machine run");
    return tm.cycles();
}

TEST(TimingEndToEnd, RegionOverheadOrdering)
{
    // Figure 9's premise: checkpoint <= +20-cycle <= single-inflight
    // (on region-heavy code).
    const Program prog = addElementProgram(2500, 256);
    const auto atomic = core::CompilerConfig::atomic();
    const uint64_t chk = endToEndCycles(
        prog, atomic, hw::TimingConfig::baseline());
    const uint64_t stall = endToEndCycles(
        prog, atomic, hw::TimingConfig::stallBegin());
    const uint64_t single = endToEndCycles(
        prog, atomic, hw::TimingConfig::singleInflight());
    EXPECT_LE(chk, stall);
    EXPECT_LT(chk, single);
}

TEST(TimingEndToEnd, AtomicBeatsBaselineOnAddElement)
{
    const Program prog = addElementProgram(2500, 256);
    const uint64_t base = endToEndCycles(
        prog, core::CompilerConfig::baseline(),
        hw::TimingConfig::baseline());
    const uint64_t atomic = endToEndCycles(
        prog, core::CompilerConfig::atomic(),
        hw::TimingConfig::baseline());
    EXPECT_LT(atomic, base);
}

TEST(TimingEndToEnd, NarrowMachineIsSlower)
{
    const Program prog = matrixProgram();
    const auto cc = core::CompilerConfig::baseline();
    const uint64_t wide = endToEndCycles(
        prog, cc, hw::TimingConfig::baseline());
    const uint64_t narrow = endToEndCycles(
        prog, cc, hw::TimingConfig::twoWide());
    EXPECT_GT(narrow, wide);
}

TEST(TimingEndToEnd, MarkersRecordMonotoneCycles)
{
    ProgramBuilder pb;
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    mb.marker(1);
    const Reg sum = mb.constant(0);
    const Reg i = mb.constant(0);
    const Reg n = mb.constant(200);
    const Reg one = mb.constant(1);
    const Label loop = mb.newLabel();
    const Label done = mb.newLabel();
    mb.bind(loop);
    mb.branchCmp(Bc::CmpGe, i, n, done);
    mb.binopTo(Bc::Add, sum, sum, i);
    mb.binopTo(Bc::Add, i, i, one);
    mb.jump(loop);
    mb.bind(done);
    mb.marker(2);
    mb.print(sum);
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    const Program prog = pb.build();
    verifyOrDie(prog);

    Profile profile(prog);
    Interpreter interp(prog, &profile);
    ASSERT_TRUE(interp.run().completed);
    core::Compiled compiled = core::compileProgram(
        prog, profile, core::CompilerConfig::baseline());
    vm::Heap layout_heap(prog, 1 << 20);
    const auto mp = hw::lowerModule(
        compiled.mod, hw::LayoutInfo::fromHeap(layout_heap));
    hw::TimingModel tm(hw::TimingConfig::baseline());
    hw::Machine machine(mp, hw::HwConfig{}, &tm);
    const auto res = machine.run();
    ASSERT_TRUE(res.completed);
    ASSERT_EQ(tm.markerCycles.size(), 2u);
    EXPECT_EQ(tm.markerCycles[0].first, 1);
    EXPECT_EQ(tm.markerCycles[1].first, 2);
    EXPECT_LT(tm.markerCycles[0].second, tm.markerCycles[1].second);
    ASSERT_EQ(res.markers.size(), 2u);
    EXPECT_LT(res.markers[0].retiredUops, res.markers[1].retiredUops);
}

TEST(TimingConfigs, FactoriesMatchFigure9AndSection63)
{
    EXPECT_EQ(hw::TimingConfig::baseline().width, 4);
    EXPECT_EQ(hw::TimingConfig::baseline().robSize, 128);
    EXPECT_EQ(hw::TimingConfig::stallBegin().regionImpl,
              hw::TimingConfig::RegionImpl::StallBegin);
    EXPECT_EQ(hw::TimingConfig::singleInflight().regionImpl,
              hw::TimingConfig::RegionImpl::SingleInflight);
    EXPECT_EQ(hw::TimingConfig::twoWide().width, 2);
    EXPECT_EQ(hw::TimingConfig::twoWideHalf().l1Lines, 256);
}

} // namespace
