/**
 * @file
 * Deopt bisimulation oracle tests (hw/bisim.hh).
 *
 * The oracle re-executes every aborted region's alternate path
 * non-speculatively from the aregion_begin checkpoint and requires
 * the replay to reach exactly the observable state the hardware left
 * behind — registers, pc, heap effects, trap identity, allocation
 * watermark. These tests drive it three ways: a hostile injection
 * grid over random programs (must stay silent), a planted rollback
 * bug via the oracle.inject.divergence failpoint (must be flagged,
 * with the replay stamp attached), and direct tampered-state feeds
 * that pin the report cap and the per-component messages.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/compiler.hh"
#include "hw/bisim.hh"
#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "support/failpoint.hh"
#include "testing/random_program.hh"
#include "vm/builder.hh"
#include "vm/interpreter.hh"
#include "vm/layout.hh"

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

struct BisimRun
{
    hw::MachineResult result;
    uint64_t checks = 0;
    uint64_t replays = 0;
    uint64_t replayedUops = 0;
    std::vector<hw::Divergence> divergences;
};

/** Run one compiled program with the bisimulation oracle attached
 *  under the given failpoint configuration (empty = no injection). */
BisimRun
runWithBisim(const hw::MachineProgram &mp, const std::string &inject,
             uint64_t inject_seed, const hw::HwConfig &config)
{
    auto &fps = fp::Registry::global();
    fps.disarmAll();
    if (!inject.empty()) {
        fps.setSeed(inject_seed);
        std::string err;
        EXPECT_GE(fps.configure(inject, &err), 0) << err;
    }

    hw::BisimOracle bisim(mp);
    hw::Machine machine(mp, config);
    machine.setBisimOracle(&bisim);
    BisimRun run;
    run.result = machine.run();
    run.checks = bisim.checks();
    run.replays = bisim.replays();
    run.replayedUops = bisim.replayedUops();
    run.divergences = bisim.divergences();
    fps.disarmAll();
    return run;
}

class BisimOracleTest : public ::testing::Test
{
  protected:
    void TearDown() override { fp::Registry::global().disarmAll(); }
};

/**
 * The acceptance grid: random program × failpoint seed × injection
 * mode. Every abort — interrupt, capacity squeeze, explicit assert —
 * must bisimulate: the non-speculative replay from the checkpoint
 * and the machine's own post-abort state must be indistinguishable.
 * In aggregate the grid must actually replay work (two replays per
 * abort), so the oracle is demonstrably exercised.
 */
TEST_F(BisimOracleTest, RandomProgramsBisimulateUnderInjectedAborts)
{
    const std::vector<std::string> injections = {
        "machine.interrupt:p0.05",
        "machine.capacity:n3",
        "machine.interrupt:p0.02,machine.capacity:p0.25,"
        "machine.assert:n5=117",
    };

    hw::HwConfig config;
    config.interruptPeriod = 20'000;

    uint64_t combos = 0;
    uint64_t total_checks = 0;
    uint64_t total_replayed = 0;
    uint64_t total_aborts = 0;

    for (uint64_t prog_seed = 1; prog_seed <= 14; ++prog_seed) {
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
                const BisimRun run = runWithBisim(
                    mp, injections[mode], fp_seed, config);
                ++combos;
                ASSERT_TRUE(run.result.completed);
                EXPECT_EQ(run.result.output, ref.output());
                EXPECT_TRUE(run.divergences.empty())
                    << run.divergences.size() << " divergence(s), "
                    << "first: " << run.divergences.front().what;
                EXPECT_EQ(run.checks, run.result.regionAborts);
                EXPECT_EQ(run.replays, 2 * run.checks);
                total_checks += run.checks;
                total_replayed += run.replayedUops;
                total_aborts += run.result.regionAborts;
            }
        }
    }

    EXPECT_GE(combos, 80u);
    EXPECT_GT(total_aborts, 100u);
    EXPECT_GT(total_checks, 100u);
    EXPECT_GT(total_replayed, 0u);
}

/** Naturally occurring aborts (timer interrupts, overflow under a
 *  tiny speculative cache) bisimulate too — no injection armed. */
TEST_F(BisimOracleTest, NaturalAbortsBisimulate)
{
    hw::HwConfig config;
    config.interruptPeriod = 5'000;
    config.l1Lines = 16;
    config.l1Assoc = 2;

    for (uint64_t prog_seed : {3ull, 7ull, 12ull}) {
        RandomProgramGen gen(prog_seed, kLegacyScalar);
        const Program prog = renderProgram(gen.generate());
        Interpreter ref(prog);
        ASSERT_TRUE(ref.run().completed);
        const auto mp = compileToMachine(prog);
        const BisimRun run = runWithBisim(mp, "", 0, config);
        ASSERT_TRUE(run.result.completed);
        EXPECT_EQ(run.result.output, ref.output());
        EXPECT_TRUE(run.divergences.empty());
    }
}

/** The oracle is a pure observer: attaching it must not change any
 *  architectural observable of a run with real aborts. */
TEST_F(BisimOracleTest, OracleIsPureObserver)
{
    hw::HwConfig config;
    config.interruptPeriod = 20'000;
    for (uint64_t prog_seed : {2ull, 9ull}) {
        RandomProgramGen gen(prog_seed, kLegacyScalar);
        const Program prog = renderProgram(gen.generate());
        const auto mp = compileToMachine(prog);

        auto &fps = fp::Registry::global();
        fps.disarmAll();
        fps.setSeed(11);
        std::string err;
        ASSERT_GE(fps.configure("machine.interrupt:p0.05", &err), 0)
            << err;
        hw::Machine plain(mp, config);
        const hw::MachineResult base = plain.run();

        fps.setSeed(11);    // reset the failpoint hit stream
        const BisimRun run =
            runWithBisim(mp, "machine.interrupt:p0.05", 11, config);

        EXPECT_EQ(run.result.output, base.output);
        EXPECT_EQ(run.result.retiredUops, base.retiredUops);
        EXPECT_EQ(run.result.executedUops, base.executedUops);
        EXPECT_EQ(run.result.regionEntries, base.regionEntries);
        EXPECT_EQ(run.result.regionAborts, base.regionAborts);
        EXPECT_EQ(run.result.regionCommits, base.regionCommits);
    }
}

/** Hand-assemble a minimal abort program: an aborted speculative
 *  store must be invisible, and the alternate path prints the
 *  pre-region values. numRegs = 8, so the divergence failpoint's
 *  corruption target (regs.back() = r7) is a *dead* register — the
 *  case a state-equality oracle at the abort point cannot see but
 *  the bisimulation register-file comparison must. */
hw::MachineProgram
abortProgram(const vm::Program &shell)
{
    hw::MachineProgram mp;
    mp.prog = &shell;
    hw::MachineFunction f;
    f.methodId = 0;
    f.name = "abort_demo";
    f.numArgs = 0;
    f.numRegs = 8;
    auto uop = [](hw::MKind kind, hw::MReg dst,
                  std::vector<hw::MReg> srcs, int64_t imm, int aux,
                  int target) {
        hw::MUop u;
        u.kind = kind;
        u.dst = dst;
        u.srcs = std::move(srcs);
        u.imm = imm;
        u.aux = aux;
        u.target = target;
        return u;
    };
    using K = hw::MKind;
    constexpr int64_t ELEM = vm::layout::ARR_ELEM_BASE;
    f.code = {
        uop(K::Imm, 3, {}, 64, 0, -1),
        uop(K::Alloc, 1, {3}, 1, 0, -1),
        uop(K::Imm, 0, {}, 11, 0, -1),
        uop(K::Store, hw::NO_MREG, {1, 0}, ELEM, 0, -1),
        uop(K::ABegin, hw::NO_MREG, {}, 0, 0, 8),
        uop(K::Imm, 0, {}, 99, 0, -1),
        uop(K::Store, hw::NO_MREG, {1, 0}, ELEM, 0, -1),
        uop(K::AAbort, hw::NO_MREG, {}, 0, 3, -1),
        // alt (offset 8):
        uop(K::Print, hw::NO_MREG, {0}, 0, 0, -1),
        uop(K::Load, 2, {1}, ELEM, 0, -1),
        uop(K::Print, hw::NO_MREG, {2}, 0, 0, -1),
        uop(K::Ret, hw::NO_MREG, {}, 0, 0, -1),
    };
    mp.funcs.emplace(0, std::move(f));
    return mp;
}

vm::Program
shellProgram()
{
    vm::ProgramBuilder pb;
    const vm::MethodId id = pb.declareMethod("m0", 0);
    auto mb = pb.define(id);
    mb.retVoid();
    mb.finish();
    pb.setMain(id);
    return pb.build();
}

/** Negative self-test: the oracle.inject.divergence failpoint
 *  corrupts one restored register after the checkpoint copy — a
 *  planted rollback bug. The bisimulation oracle must flag it even
 *  though the corrupted register is dead on the alternate path, and
 *  the report must carry the setReplayInfo stamp. */
TEST_F(BisimOracleTest, DetectsPlantedRollbackBug)
{
    const vm::Program shell = shellProgram();
    const hw::MachineProgram mp = abortProgram(shell);

    // Clean control: the planted bug absent, the abort bisimulates.
    {
        const BisimRun clean = runWithBisim(mp, "", 0, hw::HwConfig{});
        ASSERT_TRUE(clean.result.completed);
        EXPECT_EQ(clean.result.output,
                  (std::vector<int64_t>{11, 11}));
        ASSERT_EQ(clean.checks, 1u);
        EXPECT_TRUE(clean.divergences.empty());
    }

    auto &fps = fp::Registry::global();
    fps.disarmAll();
    fps.setSeed(5);
    std::string err;
    ASSERT_GE(fps.configure("oracle.inject.divergence:p1=7", &err), 0)
        << err;

    hw::BisimOracle bisim(mp);
    bisim.setReplayInfo(4242, "hw_bisim_oracle_test planted-bug demo");
    hw::Machine machine(mp, hw::HwConfig{});
    machine.setBisimOracle(&bisim);
    const hw::MachineResult res = machine.run();
    fps.disarmAll();

    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.injectedDivergences, 1u);
    ASSERT_FALSE(bisim.divergences().empty())
        << "planted register corruption not flagged";
    const std::string &what = bisim.divergences().front().what;
    EXPECT_NE(what.find("register"), std::string::npos) << what;
    EXPECT_NE(what.find("[seed=4242 ctx=0; replay: "
                        "hw_bisim_oracle_test planted-bug demo]"),
              std::string::npos)
        << what;
}

/** Direct tampered-state feed: mismatched post-abort registers at a
 *  trivial replay point (straight to Ret) must produce a register
 *  divergence, and repeated reports must saturate at maxReports with
 *  the overflow counted, not stored. */
TEST_F(BisimOracleTest, DirectTamperIsFlaggedAndReportsAreCapped)
{
    const vm::Program shell = shellProgram();
    const hw::MachineProgram mp = abortProgram(shell);
    vm::Heap heap(shell, 1 << 16);

    hw::BisimConfig cfg;
    cfg.maxReports = 3;
    hw::BisimOracle bisim(mp, cfg);
    const int ret_pc = 11;      // the Ret uop in abortProgram
    const std::vector<int64_t> checkpoint = {1, 2, 3};
    const std::vector<int64_t> tampered = {1, 9, 3};
    for (int i = 0; i < 5; ++i) {
        bisim.checkAbort(0, 0, checkpoint, ret_pc, tampered, ret_pc,
                         heap, hw::AbortCause::Explicit);
    }
    ASSERT_EQ(bisim.divergences().size(), 3u);
    EXPECT_EQ(bisim.suppressedReports(), 2u);
    EXPECT_NE(bisim.divergences().front().what.find("register"),
              std::string::npos)
        << bisim.divergences().front().what;

    // Identical states replay identically: no new divergence.
    hw::BisimOracle ok(mp);
    ok.checkAbort(0, 0, checkpoint, ret_pc, checkpoint, ret_pc, heap,
                  hw::AbortCause::Explicit);
    EXPECT_TRUE(ok.divergences().empty());
}

} // namespace
