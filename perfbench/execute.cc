#include "execute.hh"

#include <exception>
#include <string_view>

#include "core/adaptive.hh"
#include "core/compiler.hh"
#include "hw/bisim.hh"
#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "hw/oracle.hh"
#include "hw/timing.hh"
#include "runtime/resilience.hh"
#include "support/logging.hh"
#include "vm/interpreter.hh"
#include "vm/profile.hh"
#include "vm/trap.hh"

namespace aregion::perfbench {

namespace {

constexpr std::string_view kCellSpan = "cell";
constexpr std::string_view kBuildSpan = "workloads.build";
constexpr std::string_view kProfileSpan = "vm.profile";
constexpr std::string_view kRefSpan = "vm.ref";
constexpr std::string_view kCompileSpan = "core.compile";
constexpr std::string_view kLowerSpan = "hw.lower";
constexpr std::string_view kMachineSpan = "hw.machine";
constexpr std::string_view kAdaptiveSpan = "runtime.adaptive";

uint64_t
totalAborts(const hw::MachineResult &res)
{
    uint64_t total = 0;
    for (const auto &[key, stats] : res.regions)
        total += stats.totalAborts();
    return total;
}

CellCounts
countsOf(const hw::MachineResult &res, uint64_t cycles, bool recompiled)
{
    CellCounts c;
    c.checksum = res.outputChecksum();
    c.simCycles = cycles;
    c.uops = res.allContextUops;
    c.regionCommits = res.regionCommits;
    c.totalAborts = totalAborts(res);
    c.backoffSteps = res.backoffSteps;
    c.recompiled = recompiled;
    return c;
}

std::string
describe(std::exception_ptr error)
{
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &e) {
        return std::string("exception: ") + e.what();
    } catch (...) {
        return "unknown exception";
    }
}

/** The spans of one traced cell, nested by scope. */
class SpanRecorder
{
  public:
    SpanRecorder(Clock::time_point epoch, uint32_t cell,
                 std::vector<Span> &spans)
        : epoch(epoch), cell(cell), spans(spans), first(spans.size())
    {
    }

    void
    open(std::string_view name)
    {
        const int32_t parent =
            open_spans.empty()
                ? -1
                : static_cast<int32_t>(open_spans.back() - first);
        spans.push_back({name.data(), cell, parent, now(), 0});
        open_spans.push_back(spans.size() - 1);
    }

    void
    close()
    {
        spans[open_spans.back()].endNs = now();
        open_spans.pop_back();
    }

    /** Add each of this cell's spans to its layer's seconds. */
    void
    attribute(LayerTotals &t) const
    {
        for (size_t i = first; i < spans.size(); ++i) {
            const Span &s = spans[i];
            const double sec = static_cast<double>(s.endNs - s.startNs) * 1e-9;
            const std::string_view name = s.name;
            if (name == kCellSpan)
                t.cellS += sec;
            else if (name == kBuildSpan)
                t.buildS += sec;
            else if (name == kProfileSpan)
                t.profileS += sec;
            else if (name == kRefSpan)
                t.refS += sec;
            else if (name == kCompileSpan)
                t.compileS += sec;
            else if (name == kLowerSpan)
                t.lowerS += sec;
            else if (name == kMachineSpan)
                t.machineS += sec;
        }
    }

  private:
    int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch)
            .count();
    }

    Clock::time_point epoch;
    uint32_t cell;
    std::vector<Span> &spans;
    size_t first;                   ///< this cell's first span
    std::vector<size_t> open_spans; ///< innermost last
};

/** One span around the enclosing scope. */
class Scope
{
  public:
    Scope(SpanRecorder &rec, std::string_view name) : rec(rec)
    {
        rec.open(name);
    }
    ~Scope() { rec.close(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder &rec;
};

/** Forwards the machine's trace to the timing model and reads the
 *  clock around each delivery (a batch of at most 256 uops, or an
 *  abort or marker event), so the machine span splits into
 *  functional execution and timing. */
class TimedSink final : public hw::TraceSink
{
  public:
    explicit TimedSink(hw::TraceSink &inner) : inner(inner) {}
    TimedSink(const TimedSink &) = delete;
    TimedSink &operator=(const TimedSink &) = delete;

    void uop(const hw::TraceUop &u) override { uopBatch(&u, 1); }

    void
    uopBatch(const hw::TraceUop *u, size_t n) override
    {
        timed([&] { inner.uopBatch(u, n); });
        uops += n;
    }

    void
    abortFlush(const hw::AbortEvent &event) override
    {
        timed([&] { inner.abortFlush(event); });
    }

    void
    marker(int64_t id) override
    {
        timed([&] { inner.marker(id); });
    }

    /** Charge `f` to the timing model's clock. */
    template <typename F>
    void
    timed(F &&f)
    {
        const Clock::time_point start = Clock::now();
        f();
        busy += Clock::now() - start;
    }

    double seconds() const
    {
        return std::chrono::duration<double>(busy).count();
    }

    uint64_t uops = 0;              ///< delivered to the timing model

  private:
    hw::TraceSink &inner;
    Clock::duration busy{};
};

/** hw runtime stats -> adaptive telemetry, as runtime/jit.cc maps
 *  them before computeOverrides. */
core::AbortTelemetry
toTelemetry(const hw::MachineResult &res)
{
    core::AbortTelemetry telemetry;
    for (const auto &[key, stats] : res.regions) {
        core::RegionTelemetry t;
        t.entries = stats.entries;
        t.commits = stats.commits;
        t.abortsByAssert = stats.abortsByAssert;
        t.implicitAborts = stats.totalAborts();
        for (const auto &[id, count] : stats.abortsByAssert)
            t.implicitAborts -= count;
        telemetry[key] = t;
    }
    return telemetry;
}

core::Compiled
compileTraced(SpanRecorder &rec, LayerTotals &t, const vm::Program &prog,
              const vm::Profile &profile, const core::CompilerConfig &cc)
{
    core::Compiled compiled = [&] {
        Scope s(rec, kCompileSpan);
        return core::compileProgram(prog, profile, cc);
    }();
    t.compiles++;
    t.irInstrs += static_cast<uint64_t>(compiled.stats.totalInstrs);
    t.regions += static_cast<uint64_t>(compiled.stats.regions.regionsFormed);
    return compiled;
}

void
countMachine(LayerTotals &t, const hw::MachineResult &res)
{
    t.uops += res.allContextUops;
    t.discardedUops += res.discardedUops;
    t.regionEntries += res.regionEntries;
    t.regionCommits += res.regionCommits;
}

struct Execution
{
    hw::MachineResult result;
    uint64_t cycles = 0;
};

/** runtime/jit.cc's executeCompiled: lower against a 1<<16-word
 *  layout heap, then run the machine with the timing model attached. */
Execution
executeTraced(SpanRecorder &rec, LayerTotals &t,
              const core::Compiled &compiled, const vm::Program &measure,
              const runtime::ExperimentConfig &config)
{
    const hw::MachineProgram mp = [&] {
        Scope s(rec, kLowerSpan);
        vm::Heap layout_heap(measure, 1 << 16);
        return hw::lowerModule(compiled.mod,
                               hw::LayoutInfo::fromHeap(layout_heap));
    }();
    t.staticUops += static_cast<uint64_t>(mp.totalUops());

    Execution run;
    Scope s(rec, kMachineSpan);
    hw::TimingModel timing(config.timing);
    TimedSink sink(timing);
    hw::Machine machine(mp, config.hw, &sink);
    run.result = machine.run();
    sink.timed([&] { timing.publishTelemetry(); });
    run.cycles = timing.cycles();
    t.timingS += sink.seconds();
    t.timedUops += sink.uops;
    t.simCycles += run.cycles;
    countMachine(t, run.result);
    return run;
}

/** runtime::runExperiment, stage by stage. */
CellOutcome
experimentTraced(SpanRecorder &rec, LayerTotals &t, const ProgramPair &p,
                 const runtime::ExperimentConfig &config)
{
    if (config.resilience.enabled)
        AREGION_PANIC("the traced run has no copy of the resilience loop");
    CellOutcome out;

    // Stage 1: profile in the interpreter.
    vm::Profile profile(p.profile());
    {
        Scope s(rec, kProfileSpan);
        vm::Interpreter interp(p.profile(), &profile);
        const vm::InterpResult res = interp.run();
        t.bytecodes += res.instructions;
        if (!res.completed && !res.trap) {
            out.problem = "profiling run hit the step budget";
            return out;
        }
    }
    profile.publishTelemetry();

    // Stages 2 and 3: compile, then lower and run with timing.
    core::Compiled compiled =
        compileTraced(rec, t, p.measure, profile, config.compiler);
    Execution run = executeTraced(rec, t, compiled, p.measure, config);

    // Stage 4: the adaptive branch of the recompile (no cell turns on
    // the resilience loop).
    bool recompiled = false;
    if (config.adaptiveRecompile && run.result.completed) {
        Scope s(rec, kAdaptiveSpan);
        const auto overrides = config.controller.computeOverrides(
            compiled.mod, toTelemetry(run.result));
        if (!overrides.empty()) {
            core::CompilerConfig updated = config.compiler;
            updated.region.warmOverrides = overrides;
            compiled = compileTraced(rec, t, p.measure, profile, updated);
            run = executeTraced(rec, t, compiled, p.measure, config);
            recompiled = true;
            t.recompiles++;
        }
    }

    out.counts = countsOf(run.result, run.cycles, recompiled);
    if (!run.result.completed)
        out.problem = "machine did not complete";
    else if (out.counts.checksum != p.refChecksum)
        out.problem = "output checksum differs from the reference interpreter";
    return out;
}

/** contention/harness.cc's region tuning for the workloads' short
 *  critical sections. */
core::RegionConfig
contentionRegions()
{
    core::RegionConfig rc;
    rc.loopPathThreshold = 20;
    rc.targetSize = 40;
    rc.minRegionInstrs = 4;
    return rc;
}

/** contention::runContentionCell, stage by stage. */
CellOutcome
contentionTraced(SpanRecorder &rec, LayerTotals &t, const ProgramPair &p,
                 const ct::ContentionWorkload &w, uint64_t governor_seed)
{
    ct::ContentionRunConfig cfg;
    cfg.contexts = p.contexts;
    cfg.seed = governor_seed;
    const int hw_ctxs = cfg.contexts + 1;
    const std::string replay =
        ct::replayCommand(w.name, cfg.contexts, cfg.seed, false);
    CellOutcome out;
    auto problem = [&](const std::string &what) {
        if (out.problem.empty())
            out.problem = what + " [replay: " + replay + "]";
    };

    // Stage 1: build both inputs, profile on the small one.
    const auto [profile_prog, prog] = [&] {
        Scope s(rec, kBuildSpan);
        return std::make_pair(w.build(cfg.contexts, true),
                              w.build(cfg.contexts, false));
    }();
    vm::Profile profile(profile_prog);
    {
        Scope s(rec, kProfileSpan);
        vm::Interpreter interp(profile_prog, &profile, cfg.heapWords,
                               hw_ctxs);
        const vm::InterpResult res = interp.run();
        t.bytecodes += res.instructions;
        if (!res.completed) {
            problem("profiling interpreter did not complete");
            return out;
        }
    }

    // Stage 2: compile atomic + SLE with the harness's region tuning.
    core::CompilerConfig cc = core::CompilerConfig::atomic();
    cc.region = contentionRegions();
    const core::Compiled compiled = compileTraced(rec, t, prog, profile, cc);

    // Stage 3: lower, then the machine with both oracles and the
    // governor attached and no timing model.
    const hw::MachineProgram mp = [&] {
        Scope s(rec, kLowerSpan);
        vm::Heap layout_heap(prog, cfg.heapWords, hw_ctxs);
        return hw::lowerModule(compiled.mod,
                               hw::LayoutInfo::fromHeap(layout_heap));
    }();
    t.staticUops += static_cast<uint64_t>(mp.totalUops());

    hw::MachineResult res;
    {
        Scope s(rec, kMachineSpan);
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
        try {
            res = machine.run(cfg.machineMaxUops);
        } catch (const vm::Trap &) {
            problem("machine raised an unhandled trap");
            return out;
        }
        t.oracleChecks += oracle.commitChecks() +
                          oracle.conflictHeapChecks() + bisim.checks();
        t.bisimUops += bisim.replayedUops();
        t.backoffSteps += governor.backoffSteps();
        out.counts.bisimChecks = bisim.checks();
        out.counts.backoffSteps = governor.backoffSteps();
        for (const hw::Divergence &d : oracle.divergences())
            problem("oracle ctx " + std::to_string(d.ctxId) + ": " + d.what);
        for (const auto &d : bisim.divergences())
            problem("bisim ctx " + std::to_string(d.ctxId) + ": " + d.what);
    }
    countMachine(t, res);
    out.counts.checksum = res.outputChecksum();
    out.counts.uops = res.allContextUops;
    out.counts.regionCommits = res.regionCommits;
    out.counts.totalAborts = totalAborts(res);
    if (!res.completed) {
        problem(res.trap ? "machine trapped" : "machine hit the uop budget");
        return out;
    }

    // Stage 4: the harness's in-cell reference interpreter run.
    {
        Scope s(rec, kRefSpan);
        vm::Interpreter ref(prog, nullptr, cfg.heapWords, hw_ctxs);
        const vm::InterpResult ref_res = ref.run();
        t.bytecodes += ref_res.instructions;
        if (!ref_res.completed)
            problem("reference interpreter did not complete");
        else if (ref.output() != res.output)
            problem("machine output differs from the reference interpreter");
    }
    if (out.counts.checksum != p.refChecksum)
        problem("machine output differs from the setup reference");
    return out;
}

} // namespace

CellOutcome
runCell(const Suite &suite, const Cell &cell, uint64_t governor_seed)
{
    const ProgramPair &p = suite.programs[cell.program];
    CellOutcome out;
    try {
        if (cell.contention) {
            ct::ContentionRunConfig cfg;
            cfg.contexts = p.contexts;
            cfg.seed = governor_seed;
            const ct::CellResult r =
                ct::runContentionCell(*cell.contention, cfg);
            // outputMatches compares the machine with the harness's own
            // interpreter run, whose output is the setup reference.
            out.counts.checksum = r.outputMatches ? p.refChecksum : 0;
            out.counts.uops = r.allContextUops;
            out.counts.regionCommits = r.regionCommits;
            out.counts.totalAborts = r.totalAborts;
            out.counts.bisimChecks = r.bisimChecks;
            out.counts.backoffSteps = r.backoffSteps;
            if (!r.problems.empty())
                out.problem = r.problems.front();
            else if (!r.completed || !r.outputMatches)
                out.problem = "machine output differs from the reference interpreter";
            return out;
        }
        const runtime::RunMetrics m = runtime::runExperiment(
            p.profile(), p.measure, cell.config, p.samples);
        out.counts = countsOf(m.machine, m.cycles, m.recompiled);
        if (!m.completed)
            out.problem = "machine did not complete";
        else if (m.outputChecksum != p.refChecksum)
            out.problem = "output checksum differs from the reference interpreter";
    } catch (...) {
        out.problem = describe(std::current_exception());
    }
    return out;
}

CellOutcome
runCellTraced(const Suite &suite, const Cell &cell, uint64_t governor_seed,
              Clock::time_point epoch, uint32_t cell_id,
              std::vector<Span> &spans, LayerTotals &totals)
{
    SpanRecorder rec(epoch, cell_id, spans);
    LayerTotals t;
    CellOutcome out;
    try {
        Scope s(rec, kCellSpan);
        const ProgramPair &p = suite.programs[cell.program];
        out = cell.contention
                  ? contentionTraced(rec, t, p, *cell.contention,
                                     governor_seed)
                  : experimentTraced(rec, t, p, cell.config);
    } catch (...) {
        out.problem = describe(std::current_exception());
    }
    rec.attribute(t);
    t.cells = 1;
    totals.add(t);
    return out;
}

void
LayerTotals::add(const LayerTotals &o)
{
    cellS += o.cellS;
    buildS += o.buildS;
    profileS += o.profileS;
    refS += o.refS;
    compileS += o.compileS;
    lowerS += o.lowerS;
    machineS += o.machineS;
    timingS += o.timingS;
    cells += o.cells;
    bytecodes += o.bytecodes;
    compiles += o.compiles;
    irInstrs += o.irInstrs;
    regions += o.regions;
    staticUops += o.staticUops;
    uops += o.uops;
    discardedUops += o.discardedUops;
    timedUops += o.timedUops;
    regionEntries += o.regionEntries;
    regionCommits += o.regionCommits;
    oracleChecks += o.oracleChecks;
    bisimUops += o.bisimUops;
    simCycles += o.simCycles;
    recompiles += o.recompiles;
    backoffSteps += o.backoffSteps;
}

std::vector<std::pair<const char *, uint64_t>>
LayerTotals::exactCounts() const
{
    return {
        {"trace.cells", cells},
        {"vm.bytecodes", bytecodes},
        {"core.compiles", compiles},
        {"core.ir_instrs", irInstrs},
        {"core.regions", regions},
        {"hw.static_uops", staticUops},
        {"hw.uops", uops},
        {"hw.discarded_uops", discardedUops},
        {"hw.region_entries", regionEntries},
        {"hw.region_commits", regionCommits},
        {"hw.oracle_checks", oracleChecks},
        {"hw.bisim_uops", bisimUops},
        {"hw.timed_uops", timedUops},
        {"hw.sim_cycles", simCycles},
        {"runtime.recompiles", recompiles},
        {"runtime.backoff_steps", backoffSteps},
    };
}

} // namespace aregion::perfbench
