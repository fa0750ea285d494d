/**
 * @file
 * Rollback consistency oracle tests.
 *
 * Differential check of the paper's core contract (Sections 3.1–3.2):
 * under hostile abort injection, every abort must restore exact
 * architectural state, and the program must still produce the same
 * output as the reference interpreter. The oracle (hw/oracle.hh)
 * snapshots registers + heap at every aregion_begin with its own
 * mechanism and cross-checks after every abort, so a rollback bug in
 * the machine cannot mask itself.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/compiler.hh"
#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "hw/oracle.hh"
#include "support/failpoint.hh"
#include "testing/random_program.hh"
#include "vm/interpreter.hh"

namespace {

using namespace aregion;
using namespace aregion::vm;
using aregion::testing::kLegacyObjects;
using aregion::testing::kLegacyScalar;
using aregion::testing::RandomProgramGen;
using aregion::testing::renderProgram;
namespace core = aregion::core;
namespace hw = aregion::hw;
namespace fp = aregion::failpoint;

hw::MachineProgram
compileToMachine(const Program &prog)
{
    Profile profile(prog);
    Interpreter interp(prog, &profile);
    interp.run();
    core::Compiled compiled = core::compileProgram(
        prog, profile, core::CompilerConfig::atomic());
    vm::Heap layout_heap(prog, 1 << 20);
    return hw::lowerModule(compiled.mod,
                           hw::LayoutInfo::fromHeap(layout_heap));
}

struct OracleRun
{
    hw::MachineResult result;
    uint64_t checks = 0;
    uint64_t heapChecks = 0;
    std::vector<hw::Divergence> divergences;
};

/** Run one compiled program under the oracle with the given
 *  failpoint configuration (empty = no injection). */
OracleRun
runWithOracle(const hw::MachineProgram &mp, const std::string &inject,
              uint64_t inject_seed, const hw::HwConfig &config)
{
    auto &fps = fp::Registry::global();
    fps.disarmAll();
    if (!inject.empty()) {
        fps.setSeed(inject_seed);
        std::string err;
        EXPECT_GE(fps.configure(inject, &err), 0) << err;
    }

    hw::RollbackOracle oracle;
    hw::Machine machine(mp, config);
    machine.setOracle(&oracle);
    OracleRun run;
    run.result = machine.run();
    run.checks = oracle.checks();
    run.heapChecks = oracle.heapChecks();
    run.divergences = oracle.divergences();
    fps.disarmAll();
    return run;
}

class RollbackOracleTest : public ::testing::Test
{
  protected:
    void TearDown() override { fp::Registry::global().disarmAll(); }
};

/**
 * The acceptance grid: random program × failpoint seed × injection
 * mode, > 100 combinations. Every combination must complete with the
 * interpreter's exact output and zero architectural divergences, and
 * in aggregate the injections must actually provoke aborts (so the
 * oracle is demonstrably exercised, not vacuously green).
 */
TEST_F(RollbackOracleTest, RandomProgramsSurviveInjectedAborts)
{
    const std::vector<std::string> injections = {
        // Spurious context switches at random speculative uops.
        "machine.interrupt:p0.05",
        // Every third region squeezed to one way's worth of lines.
        "machine.capacity:n3",
        // All three at once, asserts with a payload id.
        "machine.interrupt:p0.02,machine.capacity:p0.25,"
        "machine.assert:n5=117",
    };

    // Small interrupt period so natural timer aborts join in.
    hw::HwConfig config;
    config.interruptPeriod = 20'000;

    uint64_t combos = 0;
    uint64_t total_checks = 0;
    uint64_t total_heap_checks = 0;
    uint64_t total_aborts = 0;

    for (uint64_t prog_seed = 1; prog_seed <= 18; ++prog_seed) {
        RandomProgramGen gen(
            prog_seed, prog_seed % 2 == 0 ? kLegacyObjects : kLegacyScalar);
        const Program prog = renderProgram(gen.generate());

        Interpreter ref(prog);
        ASSERT_TRUE(ref.run().completed) << "seed " << prog_seed;
        const auto mp = compileToMachine(prog);

        for (size_t mode = 0; mode < injections.size(); ++mode) {
            for (uint64_t fp_seed : {11ull, 42ull}) {
                SCOPED_TRACE("prog_seed=" + std::to_string(prog_seed) +
                             " mode=" + std::to_string(mode) +
                             " fp_seed=" + std::to_string(fp_seed));
                const OracleRun run = runWithOracle(
                    mp, injections[mode], fp_seed, config);
                ++combos;
                ASSERT_TRUE(run.result.completed);
                EXPECT_EQ(run.result.output, ref.output());
                EXPECT_TRUE(run.divergences.empty())
                    << run.divergences.size() << " divergence(s), "
                    << "first: " << run.divergences.front().what;
                total_checks += run.checks;
                total_heap_checks += run.heapChecks;
                total_aborts += run.result.regionAborts;
            }
        }
    }

    EXPECT_GE(combos, 100u);
    // The grid must have exercised real rollbacks, including full
    // heap comparisons (random programs are single-context).
    EXPECT_GT(total_aborts, 100u);
    EXPECT_GT(total_checks, 100u);
    EXPECT_GT(total_heap_checks, 100u);
}

/** Injection disabled + oracle attached: still zero divergences on
 *  naturally occurring aborts (interrupts, overflow). */
TEST_F(RollbackOracleTest, NaturalAbortsAreConsistent)
{
    hw::HwConfig config;
    config.interruptPeriod = 5'000;
    config.l1Lines = 16;    // tiny footprint bound: overflow aborts
    config.l1Assoc = 2;

    for (uint64_t prog_seed : {3ull, 7ull, 12ull}) {
        RandomProgramGen gen(prog_seed, kLegacyScalar);
        const Program prog = renderProgram(gen.generate());
        Interpreter ref(prog);
        ASSERT_TRUE(ref.run().completed);
        const auto mp = compileToMachine(prog);
        const OracleRun run = runWithOracle(mp, "", 0, config);
        ASSERT_TRUE(run.result.completed);
        EXPECT_EQ(run.result.output, ref.output());
        EXPECT_TRUE(run.divergences.empty());
    }
}

/** The oracle itself must detect violations — feed it a mismatched
 *  abort state directly and expect divergences for each component. */
TEST_F(RollbackOracleTest, OracleDetectsTamperedState)
{
    RandomProgramGen gen(1, kLegacyScalar);
    const Program prog = renderProgram(gen.generate());
    vm::Heap heap(prog, 1 << 16);
    const uint64_t obj = heap.allocObject(0);

    hw::RollbackOracle oracle;
    std::vector<int64_t> regs = {1, 2, 3};
    oracle.captureBegin(0, 1, regs, 10, heap);

    // Tamper with everything the contract protects.
    std::vector<int64_t> bad_regs = {1, 99, 3};
    heap.store(obj + 2, 12345);     // a "leaked" speculative store
    oracle.checkAbort(0, 1, bad_regs, 11, heap);

    ASSERT_EQ(oracle.divergences().size(), 3u);
    EXPECT_NE(oracle.divergences()[0].what.find("pc"),
              std::string::npos);
    EXPECT_NE(oracle.divergences()[1].what.find("register"),
              std::string::npos);
    EXPECT_NE(oracle.divergences()[2].what.find("heap"),
              std::string::npos);
}

/** Commit must clear the pending snapshot: an abort of a later
 *  region checks against its own begin, and a commit-then-abort
 *  without a begin is itself flagged. */
TEST_F(RollbackOracleTest, OracleTracksBeginAbortPairing)
{
    RandomProgramGen gen(1, kLegacyScalar);
    const Program prog = renderProgram(gen.generate());
    vm::Heap heap(prog, 1 << 16);

    hw::RollbackOracle oracle;
    std::vector<int64_t> regs = {5};
    oracle.captureBegin(0, 1, regs, 4, heap);
    oracle.onCommit(0);
    oracle.checkAbort(0, 1, regs, 4, heap);
    ASSERT_EQ(oracle.divergences().size(), 1u);
    EXPECT_NE(oracle.divergences()[0].what.find("without"),
              std::string::npos);
}

/** Forced assert failpoints surface as explicit aborts with the
 *  payload id recorded per region, like a real compiler assert.
 *  Whether a given generated program enters regions depends on the
 *  generator's evolution, so scan seeds until the injection fires. */
TEST_F(RollbackOracleTest, InjectedAssertsLookExplicit)
{
    bool fired = false;
    for (uint64_t seed = 1; seed <= 30 && !fired; ++seed) {
        RandomProgramGen gen(seed, kLegacyScalar);
        const Program prog = renderProgram(gen.generate());
        Interpreter ref(prog);
        ASSERT_TRUE(ref.run().completed) << "seed " << seed;
        const auto mp = compileToMachine(prog);

        const OracleRun run = runWithOracle(
            mp, "machine.assert:n2=931", 7, hw::HwConfig{});
        ASSERT_TRUE(run.result.completed) << "seed " << seed;
        EXPECT_EQ(run.result.output, ref.output()) << "seed " << seed;
        EXPECT_TRUE(run.divergences.empty()) << "seed " << seed;
        if (run.result.injectedAsserts == 0)
            continue;
        fired = true;

        uint64_t explicit_aborts = 0;
        uint64_t by_id = 0;
        for (const auto &[key, stats] : run.result.regions) {
            explicit_aborts += stats.abortsByCause[static_cast<int>(
                hw::AbortCause::Explicit)];
            const auto it = stats.abortsByAssert.find(931);
            if (it != stats.abortsByAssert.end())
                by_id += it->second;
        }
        EXPECT_EQ(explicit_aborts, run.result.injectedAsserts);
        EXPECT_EQ(by_id, run.result.injectedAsserts);
    }
    EXPECT_TRUE(fired) << "no seed in range enters a region";
}

/** Injected interrupts are indistinguishable from timer aborts in
 *  the cause register and leave no architectural residue. */
TEST_F(RollbackOracleTest, InjectedInterruptsAbortAsInterrupts)
{
    bool fired = false;
    for (uint64_t seed = 1; seed <= 30 && !fired; ++seed) {
        RandomProgramGen gen(seed, kLegacyScalar);
        const Program prog = renderProgram(gen.generate());
        Interpreter ref(prog);
        ASSERT_TRUE(ref.run().completed) << "seed " << seed;
        const auto mp = compileToMachine(prog);

        const OracleRun run = runWithOracle(
            mp, "machine.interrupt:p0.1", 3, hw::HwConfig{});
        ASSERT_TRUE(run.result.completed) << "seed " << seed;
        EXPECT_EQ(run.result.output, ref.output()) << "seed " << seed;
        EXPECT_TRUE(run.divergences.empty()) << "seed " << seed;
        if (run.result.injectedInterrupts == 0)
            continue;
        fired = true;

        uint64_t interrupt_aborts = 0;
        for (const auto &[key, stats] : run.result.regions) {
            interrupt_aborts += stats.abortsByCause[static_cast<int>(
                hw::AbortCause::Interrupt)];
        }
        EXPECT_GE(interrupt_aborts, run.result.injectedInterrupts);
    }
    EXPECT_TRUE(fired) << "no seed in range enters a region";
}

/** Capacity squeezes convert into genuine overflow aborts. */
TEST_F(RollbackOracleTest, InjectedCapacityForcesOverflow)
{
    bool forced = false;
    for (uint64_t seed = 1; seed <= 30 && !forced; ++seed) {
        // Heap traffic -> wide footprints.
        RandomProgramGen gen(seed, kLegacyObjects);
        const Program prog = renderProgram(gen.generate());
        Interpreter ref(prog);
        ASSERT_TRUE(ref.run().completed) << "seed " << seed;
        const auto mp = compileToMachine(prog);

        const OracleRun baseline =
            runWithOracle(mp, "", 0, hw::HwConfig{});
        ASSERT_TRUE(baseline.result.completed) << "seed " << seed;
        uint64_t base_overflow = 0;
        for (const auto &[key, stats] : baseline.result.regions) {
            base_overflow += stats.abortsByCause[static_cast<int>(
                hw::AbortCause::Overflow)];
        }

        // Squeeze every region to a 2-line budget.
        const OracleRun run = runWithOracle(
            mp, "machine.capacity:p1=2", 5, hw::HwConfig{});
        ASSERT_TRUE(run.result.completed) << "seed " << seed;
        EXPECT_EQ(run.result.output, ref.output()) << "seed " << seed;
        EXPECT_TRUE(run.divergences.empty()) << "seed " << seed;
        if (run.result.injectedCapacity == 0)
            continue;

        uint64_t overflow_aborts = 0;
        for (const auto &[key, stats] : run.result.regions) {
            overflow_aborts += stats.abortsByCause[static_cast<int>(
                hw::AbortCause::Overflow)];
        }
        forced = overflow_aborts > base_overflow;
    }
    EXPECT_TRUE(forced)
        << "no seed in range converts a squeeze into overflow";
}

/** A storm that aborts every region entry still completes with the
 *  interpreter's output: each abort falls through to the software
 *  path, so nothing but speculation is lost. */
TEST_F(RollbackOracleTest, StormCompletesEvenWithoutGuard)
{
    RandomProgramGen gen(8, kLegacyScalar);
    const Program prog = renderProgram(gen.generate());
    Interpreter ref(prog);
    ASSERT_TRUE(ref.run().completed);
    const auto mp = compileToMachine(prog);

    const OracleRun run =
        runWithOracle(mp, "machine.assert:p1", 0, hw::HwConfig{});
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.result.output, ref.output());
    EXPECT_TRUE(run.divergences.empty());
    EXPECT_EQ(run.result.regionCommits, 0u);
    EXPECT_EQ(run.result.regionAborts, run.result.regionEntries);
}

} // namespace
