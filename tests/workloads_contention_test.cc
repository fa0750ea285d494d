/**
 * @file
 * Contention torture subsystem tests.
 *
 * The invariant under test (ISSUE 6): post-abort state must be
 * indistinguishable from a non-speculative replay, and under
 * multi-context load the committed regions must admit a serial
 * order. The grid tests run the three shared-heap workloads
 * (src/workloads/contention/) across contention levels with the
 * cross-context rollback oracle attached — with and without forced
 * conflict injection — and additionally pin down the contention
 * governor's backoff/fairness/livelock arithmetic and the oracle's
 * replay stamping as isolated units.
 *
 * Every fixture name contains "Contention" on purpose: the TSan leg
 * (tools/check_sanitizers.sh) selects these tests by that substring.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/compiler.hh"
#include "hw/bisim.hh"
#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "hw/oracle.hh"
#include "runtime/resilience.hh"
#include "support/failpoint.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"
#include "vm/heap.hh"
#include "vm/interpreter.hh"
#include "workloads/contention/contention.hh"

namespace {

namespace ct = aregion::workloads::contention;
namespace core = aregion::core;
namespace hw = aregion::hw;
namespace vm = aregion::vm;
namespace rt = aregion::runtime;
namespace fp = aregion::failpoint;
namespace telemetry = aregion::telemetry;
namespace keys = aregion::telemetry::keys;

/** Build the standard test grid: every workload at each level. */
std::vector<ct::GridCell>
makeGrid(const std::vector<int> &levels,
         const std::vector<uint64_t> &seeds)
{
    std::vector<ct::GridCell> cells;
    for (const int level : levels) {
        for (const uint64_t seed : seeds) {
            for (const ct::ContentionWorkload &w :
                 ct::contentionSuite()) {
                ct::ContentionRunConfig cfg;
                cfg.contexts = level;
                cfg.seed = seed;
                cells.push_back({&w, cfg});
            }
        }
    }
    return cells;
}

void
expectAllCellsClean(const std::vector<ct::CellResult> &results)
{
    for (const ct::CellResult &r : results) {
        SCOPED_TRACE(r.workload + "@" + std::to_string(r.contexts) +
                     " seed=" + std::to_string(r.seed));
        EXPECT_TRUE(r.completed);
        EXPECT_TRUE(r.outputMatches);
        for (const std::string &p : r.problems)
            ADD_FAILURE() << p;
        EXPECT_GT(r.regionEntries, 0u);
        EXPECT_GT(r.regionCommits, 0u);
    }
}

class ContentionGridTest : public ::testing::Test
{
  protected:
    void SetUp() override { fp::Registry::global().disarmAll(); }
    void TearDown() override { fp::Registry::global().disarmAll(); }
};

/**
 * The acceptance grid: 2/4/8 contexts x 3 workloads x 2 seeds, no
 * injection. Every cell must complete with the interpreter's exact
 * output and zero oracle divergences, the oracle must demonstrably
 * run its cross-context checks, and — the headline number — genuine
 * conflict aborts must appear at >= 4 contexts.
 */
TEST_F(ContentionGridTest, GridIsSerializableWithoutInjection)
{
    const auto cells = makeGrid({2, 4, 8}, {1, 2});
    const auto results = ct::runContentionGrid(cells);
    ASSERT_EQ(results.size(), cells.size());
    expectAllCellsClean(results);

    uint64_t conflicts_at_4plus = 0;
    uint64_t oracle_checks = 0;
    for (const ct::CellResult &r : results) {
        if (r.contexts >= 4)
            conflicts_at_4plus += r.conflictAborts;
        oracle_checks +=
            r.oracleCommitChecks + r.oracleConflictHeapChecks;
        // No injection armed: nothing may be attributed to it.
        EXPECT_EQ(r.injectedConflicts, 0u);
        EXPECT_EQ(r.injectedCommitStalls, 0u);
    }
    EXPECT_GT(conflicts_at_4plus, 0u)
        << "contention workloads no longer collide; "
           "machine.abort.conflict stayed at zero";
    EXPECT_GT(oracle_checks, 0u)
        << "oracle attached but never exercised";
}

/**
 * Same grid under forced conflicts and held-open commit windows.
 * Arming is grid-scoped (the registry is process-global). Injection
 * must provoke extra aborts somewhere, yet every cell still
 * completes, matches the interpreter, and shows zero divergences —
 * aborts are survivable, not just countable.
 */
TEST_F(ContentionGridTest, GridSurvivesForcedConflictInjection)
{
    auto &fps = fp::Registry::global();
    fps.setSeed(7);
    std::string err;
    ASSERT_GE(
        fps.configure(
            "machine.conflict:p0.02,machine.commit_stall:p0.05=64",
            &err),
        0)
        << err;

    const auto cells = makeGrid({2, 4, 8}, {7});
    const auto results = ct::runContentionGrid(cells);
    fps.disarmAll();

    ASSERT_EQ(results.size(), cells.size());
    expectAllCellsClean(results);

    uint64_t injected = 0;
    for (const ct::CellResult &r : results)
        injected += r.injectedConflicts + r.injectedCommitStalls;
    EXPECT_GT(injected, 0u) << "injection armed but never fired";
}

/**
 * Each machine run numbers its own failpoint hits, so an injected
 * cell's result is a function of the cell alone. bench_contention's
 * forced-contention sweep (5 levels x 3 workloads, seed 1) and its
 * stamped replay of the hashtable cell at 4 contexts must read the
 * same row, at 1 job and at 4.
 */
TEST_F(ContentionGridTest, InjectedCellReplaysItsSweepRowAtAnyJobCount)
{
    auto &fps = fp::Registry::global();
    fps.setSeed(1);
    std::string err;
    ASSERT_GE(
        fps.configure(
            "machine.conflict:p0.02,machine.commit_stall:p0.05=64",
            &err),
        0)
        << err;

    const auto row = [](const ct::CellResult &r) {
        return std::vector<uint64_t>{
            r.regionEntries,     r.regionCommits,
            r.totalAborts,       r.conflictAborts,
            r.injectedConflicts, r.injectedCommitStalls,
            r.allContextUops,    r.backoffSteps,
            r.livelockBreaks};
    };
    const char *env = std::getenv("AREGION_JOBS");
    const std::string saved = env ? env : "";
    const ct::ContentionWorkload &hashtable =
        ct::contentionWorkloadByName("hashtable");
    std::vector<std::vector<uint64_t>> rows;
    for (const char *jobs : {"1", "4"}) {
        SCOPED_TRACE(std::string("AREGION_JOBS=") + jobs);
        setenv("AREGION_JOBS", jobs, 1);
        const auto sweep = ct::runContentionGrid(
            makeGrid({2, 4, 8, 16, 32}, {1}));
        ct::ContentionRunConfig cfg;
        cfg.contexts = 4;
        cfg.seed = 1;
        const auto alone = ct::runContentionGrid({{&hashtable, cfg}});
        bool found = false;
        for (const ct::CellResult &r : sweep) {
            if (r.workload != "hashtable" || r.contexts != 4)
                continue;
            found = true;
            EXPECT_EQ(row(r), row(alone[0]));
        }
        EXPECT_TRUE(found);
        EXPECT_GT(alone[0].injectedConflicts +
                      alone[0].injectedCommitStalls,
                  0u)
            << "injection armed but never fired";
        rows.push_back(row(alone[0]));
    }
    if (env)
        setenv("AREGION_JOBS", saved.c_str(), 1);
    else
        unsetenv("AREGION_JOBS");
    fps.disarmAll();
    EXPECT_EQ(rows[0], rows[1]);
}

/** Randomized commit interleavings: different seeds jitter the
 *  governor differently, but the architectural outcome (completion,
 *  output, serializability) is seed-invariant, and any single seed
 *  replays to the identical abort history. */
TEST_F(ContentionGridTest, OutcomeIsSeedInvariantAndReplayable)
{
    const ct::ContentionWorkload &w =
        ct::contentionWorkloadByName("counters");
    ct::ContentionRunConfig cfg;
    cfg.contexts = 6;
    std::vector<ct::CellResult> runs;
    for (const uint64_t seed : {3ull, 9ull, 3ull}) {
        cfg.seed = seed;
        runs.push_back(ct::runContentionCell(w, cfg));
    }
    for (const ct::CellResult &r : runs) {
        EXPECT_TRUE(r.completed);
        EXPECT_TRUE(r.outputMatches);
        EXPECT_TRUE(r.problems.empty());
    }
    // Same seed => bit-identical abort/backoff history.
    EXPECT_EQ(runs[0].conflictAborts, runs[2].conflictAborts);
    EXPECT_EQ(runs[0].backoffSteps, runs[2].backoffSteps);
    EXPECT_EQ(runs[0].regionCommits, runs[2].regionCommits);
}

class ContentionGovernorTest : public ::testing::Test
{
};

/** Conflict backoff doubles per consecutive conflict and resets on
 *  commit; jitter keeps each stall within [2^k*base, 2^(k+1)*base). */
TEST_F(ContentionGovernorTest, BackoffGrowsExponentiallyAndResets)
{
    rt::ContentionPolicy policy;
    policy.baseStall = 8;
    policy.maxStall = 1024;
    policy.livelockWindow = 1000;   // keep the breaker out of frame
    policy.fairnessWindow = 1000;
    rt::ContentionGovernor gov(policy);

    uint64_t floor = policy.baseStall;
    for (int streak = 1; streak <= 5; ++streak) {
        const uint64_t stall =
            gov.onAbort(0, hw::AbortCause::Conflict);
        EXPECT_GE(stall, floor) << "streak " << streak;
        EXPECT_LT(stall, 2 * floor) << "streak " << streak;
        floor *= 2;
    }

    // A commit resets the streak: the next conflict draws from the
    // base bucket again.
    gov.onCommit(0);
    const uint64_t stall = gov.onAbort(0, hw::AbortCause::Conflict);
    EXPECT_GE(stall, policy.baseStall);
    EXPECT_LT(stall, 2 * policy.baseStall);
    EXPECT_GT(gov.backoffSteps(), 0u);
}

/** The growth is capped at maxStall (plus jitter < maxStall). */
TEST_F(ContentionGovernorTest, BackoffIsCappedAtMaxStall)
{
    rt::ContentionPolicy policy;
    policy.baseStall = 8;
    policy.maxStall = 64;
    policy.livelockWindow = 10000;
    policy.fairnessWindow = 10000;
    rt::ContentionGovernor gov(policy);
    for (int i = 0; i < 200; ++i) {
        const uint64_t stall =
            gov.onAbort(0, hw::AbortCause::Conflict);
        EXPECT_LT(stall, 2 * policy.maxStall);
    }
}

/** Only conflicts are contention: capacity, interrupt, and explicit
 *  aborts have their own remediation and draw no backoff. */
TEST_F(ContentionGovernorTest, NonConflictAbortsDrawNoBackoff)
{
    rt::ContentionGovernor gov(rt::ContentionPolicy{});
    EXPECT_EQ(gov.onAbort(0, hw::AbortCause::Overflow), 0u);
    EXPECT_EQ(gov.onAbort(0, hw::AbortCause::Interrupt), 0u);
    EXPECT_EQ(gov.onAbort(0, hw::AbortCause::Explicit), 0u);
    EXPECT_EQ(gov.backoffSteps(), 0u);
}

/** Fairness guard: a context lapped fairnessWindow times by the rest
 *  of the machine retries immediately (backoff immunity) until its
 *  own next commit. */
TEST_F(ContentionGovernorTest, StarvingContextGetsBackoffImmunity)
{
    rt::ContentionPolicy policy;
    policy.fairnessWindow = 4;
    policy.livelockWindow = 1000;
    rt::ContentionGovernor gov(policy);

    // Not starving yet: a conflict draws a real stall.
    EXPECT_GT(gov.onAbort(0, hw::AbortCause::Conflict), 0u);

    // The rest of the machine laps context 0 four times.
    for (int i = 0; i < 4; ++i)
        gov.onCommit(1);

    EXPECT_EQ(gov.onAbort(0, hw::AbortCause::Conflict), 0u);
    EXPECT_EQ(gov.starvationBoosts(), 1u);
    // Still starving: immunity persists (and is counted once).
    EXPECT_EQ(gov.onAbort(0, hw::AbortCause::Conflict), 0u);
    EXPECT_EQ(gov.starvationBoosts(), 1u);

    // Its own commit clears the flag; backoff applies again.
    gov.onCommit(0);
    EXPECT_GT(gov.onAbort(0, hw::AbortCause::Conflict), 0u);
}

/** Livelock breaker: livelockWindow conflicts with zero intervening
 *  commits switch every stall to id-staggered (lowest id wins the
 *  next race outright, no jitter); any commit clears the mode. */
TEST_F(ContentionGovernorTest, MutualAbortLivelockStaggersById)
{
    rt::ContentionPolicy policy;
    policy.baseStall = 8;
    policy.livelockWindow = 4;
    policy.fairnessWindow = 1000;
    rt::ContentionGovernor gov(policy);

    // Three mutual conflicts: breaker not yet engaged.
    gov.onAbort(0, hw::AbortCause::Conflict);
    gov.onAbort(1, hw::AbortCause::Conflict);
    gov.onAbort(0, hw::AbortCause::Conflict);
    EXPECT_EQ(gov.livelockBreaks(), 0u);

    // The fourth engages staggered mode for this abort already.
    EXPECT_EQ(gov.onAbort(1, hw::AbortCause::Conflict),
              policy.baseStall);
    EXPECT_EQ(gov.livelockBreaks(), 1u);

    // Staggered stalls are exact multiples of baseStall by id.
    EXPECT_EQ(gov.onAbort(0, hw::AbortCause::Conflict), 0u);
    EXPECT_EQ(gov.onAbort(2, hw::AbortCause::Conflict),
              2 * policy.baseStall);

    // Any commit ends the episode; jittered backoff resumes.
    gov.onCommit(0);
    const uint64_t stall = gov.onAbort(1, hw::AbortCause::Conflict);
    EXPECT_NE(stall, 5 * policy.baseStall);
    EXPECT_GT(stall, 0u);
    EXPECT_EQ(gov.livelockBreaks(), 1u);
}

/** All governor decisions are pure functions of (policy, history):
 *  two governors with the same policy replay identical stalls. */
TEST_F(ContentionGovernorTest, JitterIsDeterministicInPolicySeed)
{
    rt::ContentionPolicy policy;
    policy.seed = 42;
    policy.livelockWindow = 1000;
    policy.fairnessWindow = 1000;
    rt::ContentionGovernor a(policy), b(policy);
    std::vector<uint64_t> sa, sb;
    for (int i = 0; i < 32; ++i) {
        const int ctx = i % 3;
        sa.push_back(a.onAbort(ctx, hw::AbortCause::Conflict));
        sb.push_back(b.onAbort(ctx, hw::AbortCause::Conflict));
    }
    EXPECT_EQ(sa, sb);
}

class ContentionBisimTest : public ::testing::Test
{
  protected:
    void SetUp() override { fp::Registry::global().disarmAll(); }
    void TearDown() override { fp::Registry::global().disarmAll(); }
};

/**
 * Cross-context bisimulation (ISSUE 9 tentpole): at 2 and 8 contexts
 * every abort in the three shared-heap workloads — including genuine
 * conflict aborts — must replay to an equivalent observable state
 * from the aregion_begin checkpoint. The harness always attaches the
 * oracle, so this pins what the whole grid surface runs with; the
 * explicit matrix makes the 2-vs-8 coverage non-negotiable and
 * checks the oracle demonstrably replayed work.
 */
TEST_F(ContentionBisimTest, CrossContextAbortsBisimulateAt2And8)
{
    const auto cells = makeGrid({2, 8}, {1, 2});
    const auto results = ct::runContentionGrid(cells);
    ASSERT_EQ(results.size(), cells.size());
    expectAllCellsClean(results);

    uint64_t checks = 0;
    uint64_t replayed_uops = 0;
    uint64_t conflicts_at_8 = 0;
    for (const ct::CellResult &r : results) {
        checks += r.bisimChecks;
        replayed_uops += r.bisimReplayedUops;
        if (r.contexts == 8)
            conflicts_at_8 += r.conflictAborts;
    }
    EXPECT_GT(checks, 0u)
        << "bisim oracle attached but no abort was ever checked";
    EXPECT_GT(replayed_uops, 0u);
    EXPECT_GT(conflicts_at_8, 0u)
        << "no conflict abort reached the bisimulation oracle";
}

/**
 * Seeded conflict-abort storm: forced cross-context conflicts at a
 * rate that dwarfs the natural collision rate, all under the
 * bisimulation oracle. Every cell must still complete, match the
 * interpreter, and show zero divergences — each of the hundreds of
 * storm aborts replayed to an equivalent state.
 */
TEST_F(ContentionBisimTest, SeededConflictAbortStormBisimulates)
{
    auto &fps = fp::Registry::global();
    fps.setSeed(13);
    std::string err;
    ASSERT_GE(fps.configure("machine.conflict:p0.2", &err), 0) << err;

    const auto cells = makeGrid({8}, {5});
    const auto results = ct::runContentionGrid(cells);
    fps.disarmAll();

    ASSERT_EQ(results.size(), cells.size());
    expectAllCellsClean(results);

    uint64_t injected = 0;
    uint64_t checks = 0;
    for (const ct::CellResult &r : results) {
        injected += r.injectedConflicts;
        checks += r.bisimChecks;
    }
    EXPECT_GT(injected, 0u) << "storm armed but never fired";
    EXPECT_GT(checks, injected)
        << "storm aborts were not bisimulation-checked";
}

/**
 * The bisimulation oracle is a pure observer under contention too.
 * The harness always attaches it, so this drives the counters cell at
 * 8 contexts (seed 3) on a machine built as the harness builds it
 * (quantum 13, governor attached), once without the oracle and once
 * with it. The run without it publishes no bisim checks, the machine
 * history is the same either way, and the attached run is the
 * harness's own cell.
 */
TEST_F(ContentionBisimTest, DisabledBisimIsInertAndUncounted)
{
    const ct::ContentionWorkload &w =
        ct::contentionWorkloadByName("counters");
    ct::ContentionRunConfig cfg;
    cfg.contexts = 8;
    cfg.seed = 3;
    const int hw_ctxs = cfg.contexts + 1;

    const vm::Program profile_prog = w.build(cfg.contexts, true);
    const vm::Program prog = w.build(cfg.contexts, false);
    vm::Profile profile(profile_prog);
    vm::Interpreter interp(profile_prog, &profile, cfg.heapWords,
                           hw_ctxs);
    ASSERT_TRUE(interp.run().completed);
    core::CompilerConfig cc = core::CompilerConfig::atomic();
    cc.region = core::RegionConfig::smallBodies();
    const core::Compiled compiled =
        core::compileProgram(prog, profile, cc);
    vm::Heap layout_heap(prog, cfg.heapWords, hw_ctxs);
    const hw::MachineProgram mp = hw::lowerModule(
        compiled.mod, hw::LayoutInfo::fromHeap(layout_heap));

    auto run = [&](hw::BisimOracle *bisim) {
        hw::HwConfig hw_cfg;
        hw_cfg.maxContexts = hw_ctxs;
        hw_cfg.quantum = cfg.quantum;
        hw::Machine machine(mp, hw_cfg, nullptr, cfg.heapWords);
        machine.setBisimOracle(bisim);
        rt::ContentionPolicy policy = cfg.policy;
        policy.seed = cfg.seed;
        rt::ContentionGovernor governor(policy);
        machine.setContentionControl(&governor);
        return machine.run(cfg.machineMaxUops);
    };
    auto conflictAborts = [](const hw::MachineResult &res) {
        uint64_t n = 0;
        for (const auto &[key, rr] : res.regions)
            n += rr.abortsByCause[static_cast<int>(
                hw::AbortCause::Conflict)];
        return n;
    };
    const auto &reg = telemetry::Registry::global();
    const uint64_t checks0 = reg.counterValue(keys::kOracleBisimChecks);
    const hw::MachineResult off = run(nullptr);
    EXPECT_EQ(reg.counterValue(keys::kOracleBisimChecks), checks0);
    hw::BisimOracle bisim(mp);
    const hw::MachineResult on = run(&bisim);

    ASSERT_TRUE(off.completed);
    ASSERT_TRUE(on.completed);
    EXPECT_TRUE(bisim.divergences().empty());
    EXPECT_GT(bisim.checks(), 0u);
    EXPECT_EQ(reg.counterValue(keys::kOracleBisimChecks) - checks0,
              bisim.checks());
    EXPECT_GT(conflictAborts(on), 0u);
    // Same seed, same machine history, oracle attached or not.
    EXPECT_EQ(on.regionCommits, off.regionCommits);
    EXPECT_EQ(conflictAborts(on), conflictAborts(off));
    EXPECT_EQ(on.backoffSteps, off.backoffSteps);

    const ct::CellResult cell = ct::runContentionCell(w, cfg);
    EXPECT_TRUE(cell.problems.empty());
    EXPECT_EQ(cell.regionCommits, on.regionCommits);
    EXPECT_EQ(cell.conflictAborts, conflictAborts(on));
    EXPECT_EQ(cell.backoffSteps, on.backoffSteps);
    EXPECT_EQ(cell.bisimChecks, bisim.checks());
}

class ContentionOracleTest : public ::testing::Test
{
  protected:
    void SetUp() override { fp::Registry::global().disarmAll(); }
    void TearDown() override { fp::Registry::global().disarmAll(); }
};

/**
 * Satellite: oracle failures carry their reproduction coordinates.
 * A tampered abort state must produce a divergence whose message
 * names the seed, the context id, and a one-line replay command —
 * exactly what runContentionCell stamps via setReplayInfo.
 */
TEST_F(ContentionOracleTest, DivergenceMessagesCarryReplayCommand)
{
    const aregion::vm::Program prog =
        ct::makeStripedCounters().build(2, /*profile_variant=*/true);
    aregion::vm::Heap heap(prog, 1 << 16);

    hw::RollbackOracle oracle;
    oracle.setReplayInfo(
        7, ct::replayCommand("counters", 4, 7, /*injected=*/false));

    std::vector<int64_t> regs = {1, 2, 3};
    oracle.captureBegin(2, 4, regs, 10, heap);
    oracle.checkAbort(2, 4, regs, 11, heap);    // wrong resume pc

    ASSERT_EQ(oracle.divergences().size(), 1u);
    const std::string &what = oracle.divergences()[0].what;
    EXPECT_EQ(oracle.divergences()[0].ctxId, 2);
    EXPECT_NE(what.find("seed=7"), std::string::npos) << what;
    EXPECT_NE(what.find("ctx=2"), std::string::npos) << what;
    EXPECT_NE(what.find("replay: bench_contention --workload "
                        "counters --contexts 4 --seed 7"),
              std::string::npos)
        << what;
}

/** Under injection a cell's replay command re-arms what was armed:
 *  the planted rollback bug's first report leads its replay line
 *  with the armed failpoint set and seed. */
TEST_F(ContentionOracleTest, InjectedCellReplayCarriesArmedFailpoints)
{
    auto &fps = fp::Registry::global();
    fps.setSeed(5);
    ASSERT_EQ(fps.configure("oracle.inject.divergence:p1"), 1);
    ct::ContentionRunConfig cfg;
    cfg.contexts = 2;
    cfg.seed = 3;
    const ct::CellResult r =
        ct::runContentionCell(ct::contentionWorkloadByName("counters"), cfg);
    fps.disarmAll();

    ASSERT_FALSE(r.problems.empty()) << "the planted bug went unreported";
    EXPECT_NE(r.problems[0].find(
                  "replay: AREGION_FAILPOINTS='oracle.inject.divergence:p1'"
                  " AREGION_FAILPOINT_SEED=5 bench_contention --workload "
                  "counters --contexts 2 --seed 3"),
              std::string::npos)
        << r.problems[0];
}

/** Without setReplayInfo the message is unstamped — the oracle must
 *  not invent coordinates it was never given. */
TEST_F(ContentionOracleTest, UnstampedOracleOmitsReplayCoordinates)
{
    const aregion::vm::Program prog =
        ct::makeStripedCounters().build(2, /*profile_variant=*/true);
    aregion::vm::Heap heap(prog, 1 << 16);

    hw::RollbackOracle oracle;
    std::vector<int64_t> regs = {4};
    oracle.captureBegin(0, 1, regs, 3, heap);
    oracle.checkAbort(0, 1, regs, 5, heap);

    ASSERT_EQ(oracle.divergences().size(), 1u);
    EXPECT_EQ(oracle.divergences()[0].what.find("replay:"),
              std::string::npos);
}

} // namespace
