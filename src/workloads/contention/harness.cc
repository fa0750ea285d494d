/**
 * @file
 * Contention harness: one grid cell = profile, compile (atomic +
 * SLE), run on contexts+1 hardware contexts with the cross-context
 * rollback oracle, the bisimulation oracle and the contention
 * governor attached, then differentially check the printed output
 * against the reference interpreter.
 *
 * The harness drives the pipeline directly (like
 * testing/diff_harness.cc) instead of runtime::runExperiment because
 * the experiment driver cannot attach an oracle or a
 * ContentionControl — and those are the whole point here.
 */

#include "workloads/contention/contention.hh"

#include <sstream>

#include "core/compiler.hh"
#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "hw/bisim.hh"
#include "hw/oracle.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"
#include "support/output.hh"
#include "support/parallel.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"
#include "vm/interpreter.hh"

namespace aregion::workloads::contention {

const std::vector<ContentionWorkload> &
contentionSuite()
{
    static const std::vector<ContentionWorkload> suite = [] {
        std::vector<ContentionWorkload> w;
        w.push_back(makeStripedCounters());
        w.push_back(makeStripedHashTable());
        w.push_back(makeMpmcQueue());
        return w;
    }();
    return suite;
}

const ContentionWorkload &
contentionWorkloadByName(const std::string &name)
{
    for (const ContentionWorkload &w : contentionSuite()) {
        if (w.name == name)
            return w;
    }
    AREGION_PANIC("unknown contention workload ", name);
}

std::string
replayCommand(const std::string &workload, int contexts,
              uint64_t seed, bool injected)
{
    std::ostringstream os;
    if (injected) {
        const failpoint::Registry &fps = failpoint::Registry::global();
        os << "AREGION_FAILPOINTS='" << fps.describe()
           << "' AREGION_FAILPOINT_SEED=" << fps.seed() << " ";
    }
    os << "bench_contention --workload " << workload << " --contexts "
       << contexts << " --seed " << seed;
    return os.str();
}

CellResult
runContentionCell(const ContentionWorkload &workload,
                  const ContentionRunConfig &cfg)
{
    CellResult cell;
    cell.workload = workload.name;
    cell.contexts = cfg.contexts;
    cell.seed = cfg.seed;

    // Spawned workers + the coordinating main context.
    const int hw_ctxs = cfg.contexts + 1;
    const std::string replay =
        replayCommand(workload.name, cfg.contexts, cfg.seed,
                      failpoint::Registry::global().anyArmed());
    auto problem = [&](const std::string &what) {
        std::ostringstream os;
        os << what << " [workload=" << workload.name
           << " contexts=" << cfg.contexts << " seed=" << cfg.seed
           << "; replay: " << replay << "]";
        cell.problems.push_back(os.str());
    };

    // Stage 1: profile on the small variant (pc-compatible with the
    // measured program; only immediates differ).
    const vm::Program profile_prog =
        workload.build(cfg.contexts, /*profile_variant=*/true);
    const vm::Program prog =
        workload.build(cfg.contexts, /*profile_variant=*/false);
    vm::Profile profile(profile_prog);
    {
        vm::Interpreter interp(profile_prog, &profile, cfg.heapWords,
                               hw_ctxs);
        const auto res = interp.run();
        if (!res.completed) {
            problem("profiling interpreter did not complete");
            return cell;
        }
    }

    // Stage 2: compile atomic + SLE with small-program region tuning.
    core::CompilerConfig cc = core::CompilerConfig::atomic();
    cc.region = core::RegionConfig::smallBodies();
    const core::Compiled compiled =
        core::compileProgram(prog, profile, cc);

    // Stage 3: the machine, oracle, and governor.
    vm::Heap layout_heap(prog, cfg.heapWords, hw_ctxs);
    const hw::LayoutInfo layout = hw::LayoutInfo::fromHeap(layout_heap);
    const hw::MachineProgram mp = hw::lowerModule(compiled.mod, layout);

    hw::HwConfig hw_cfg;
    hw_cfg.maxContexts = hw_ctxs;
    hw_cfg.quantum = cfg.quantum;

    hw::Machine machine(mp, hw_cfg, nullptr, cfg.heapWords);
    hw::RollbackOracle oracle;
    oracle.setReplayInfo(cfg.seed, replay);
    machine.setOracle(&oracle);
    hw::BisimOracle bisim(mp);
    bisim.setReplayInfo(cfg.seed, replay);
    machine.setBisimOracle(&bisim);
    runtime::ContentionPolicy policy = cfg.policy;
    policy.seed = cfg.seed;
    runtime::ContentionGovernor governor(policy);
    machine.setContentionControl(&governor);

    hw::MachineResult res;
    try {
        res = machine.run(cfg.machineMaxUops);
    } catch (const vm::Trap &) {
        problem("machine raised an unhandled trap");
        return cell;
    }

    cell.completed = res.completed;
    cell.regionEntries = res.regionEntries;
    cell.regionCommits = res.regionCommits;
    cell.injectedConflicts = res.injectedConflicts;
    cell.injectedCommitStalls = res.injectedCommitStalls;
    cell.allContextUops = res.allContextUops;
    cell.backoffSteps = governor.backoffSteps();
    cell.starvationBoosts = governor.starvationBoosts();
    cell.livelockBreaks = governor.livelockBreaks();
    cell.oracleCommitChecks = oracle.commitChecks();
    cell.oracleConflictHeapChecks = oracle.conflictHeapChecks();
    cell.bisimChecks = bisim.checks();
    cell.bisimReplayedUops = bisim.replayedUops();
    for (const auto &[key, rr] : res.regions) {
        cell.totalAborts += rr.totalAborts();
        cell.conflictAborts += rr.abortsByCause[static_cast<int>(
            hw::AbortCause::Conflict)];
    }
    if (!res.completed) {
        problem(res.trap ? "machine trapped" :
                           "machine hit the uop budget");
        return cell;
    }
    for (const auto &d : oracle.divergences())
        cell.problems.push_back("oracle ctx " +
                                std::to_string(d.ctxId) + ": " +
                                d.what);
    for (const auto &d : bisim.divergences())
        cell.problems.push_back("bisim ctx " +
                                std::to_string(d.ctxId) + ": " +
                                d.what);

    // Stage 4: differential output check against the reference
    // interpreter. Workloads print only interleaving-invariant
    // values, so one interpreter run covers every machine schedule.
    vm::Interpreter ref(prog, nullptr, cfg.heapWords, hw_ctxs);
    const auto ref_res = ref.run();
    if (!ref_res.completed) {
        problem("reference interpreter did not complete");
        return cell;
    }
    cell.outputMatches = ref.output() == res.output;
    if (!cell.outputMatches) {
        problem("output mismatch: interp=" +
                outputString(ref.output()) +
                " machine=" + outputString(res.output));
    }
    return cell;
}

std::vector<CellResult>
runContentionGrid(const std::vector<GridCell> &cells)
{
    std::vector<CellResult> results(cells.size());
    parallel::runGrid(cells.size(), [&](size_t i) {
        results[i] =
            runContentionCell(*cells[i].workload, cells[i].cfg);
    });

    namespace keys = telemetry::keys;
    auto &reg = telemetry::Registry::global();
    uint64_t checks = 0, divergences = 0;
    for (const CellResult &r : results) {
        checks += r.oracleCommitChecks + r.oracleConflictHeapChecks +
                  r.bisimChecks;
        divergences += r.problems.size();
    }
    reg.add(keys::kContentionCells, results.size());
    reg.add(keys::kContentionOracleChecks, checks);
    reg.add(keys::kContentionDivergences, divergences);
    return results;
}

} // namespace aregion::workloads::contention
