#include "testing/diff_harness.hh"

#include <sstream>

#include "core/compiler.hh"
#include "hw/bisim.hh"
#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "hw/oracle.hh"
#include "hw/timing.hh"
#include "ir/evaluator.hh"
#include "ir/verifier.hh"
#include "support/output.hh"
#include "vm/interpreter.hh"
#include "vm/layout.hh"

namespace aregion::testing {

namespace {

/** Interpreter/evaluator step budgets and the machine's uop budget.
 *  Generated programs are tiny; a budget hit is reported as a skip. */
constexpr uint64_t kMaxSteps = 1ull << 24;
constexpr uint64_t kMachineMaxUops = 1ull << 26;
constexpr uint64_t kHeapWords = 1ull << 22;

/** Forced abort period of the evaluator's rollback stress run. */
constexpr uint64_t kEvalForceAbortPeriod = 3;

/** Reproduction stamp appended to bisim divergence reports: fuzzer
 *  seed plus a one-command replay line (empty command = no stamp). */
struct ReplayStamp
{
    uint64_t seed = 0;
    std::string command;
};

/** Everything one executor run exposes for comparison. */
struct Outcome
{
    bool completed = false;
    std::optional<vm::Trap> trap;
    std::vector<int64_t> output;
    uint64_t digest = 0;
    bool digestValid = false;
};

std::string
trapString(const std::optional<vm::Trap> &trap)
{
    if (!trap)
        return "none";
    std::ostringstream os;
    os << vm::trapName(trap->kind) << " m" << trap->method << ":pc"
       << trap->pc;
    return os.str();
}

/** Compare one executor's outcome against the reference run.
 *  Digest mismatch is only reported when both sides have a valid
 *  (comparison-scoped) digest. */
void
compareOutcome(DiffReport &report, const std::string &stage,
               const Outcome &ref, const Outcome &got,
               bool compare_digest)
{
    auto add = [&](const std::string &detail) {
        report.divergences.push_back({stage, detail});
    };

    if (ref.completed != got.completed)
        add("completed: ref=" + std::to_string(ref.completed) +
            " got=" + std::to_string(got.completed));

    const bool ref_has = ref.trap.has_value();
    const bool got_has = got.trap.has_value();
    if (ref_has != got_has ||
        (ref_has &&
         (ref.trap->kind != got.trap->kind ||
          ref.trap->method != got.trap->method ||
          ref.trap->pc != got.trap->pc))) {
        add("trap: ref=" + trapString(ref.trap) +
            " got=" + trapString(got.trap));
    }

    if (ref.output != got.output)
        add("output: ref=" + outputString(ref.output) +
            " got=" + outputString(got.output));

    if (compare_digest && ref.digestValid && got.digestValid &&
        ref.digest != got.digest) {
        std::ostringstream os;
        os << "heap digest: ref=" << std::hex << ref.digest
           << " got=" << got.digest;
        add(os.str());
    }
}

} // namespace

uint64_t
heapDigest(const vm::Heap &heap)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&](uint64_t word) {
        h ^= word;
        h *= 0x100000001b3ull;
    };
    const uint64_t mark = heap.allocMark();
    for (uint64_t addr = vm::layout::POISON_WORDS; addr < mark; ++addr)
        mix(static_cast<uint64_t>(heap.load(addr)));
    mix(mark);
    return h;
}

std::string
DiffReport::summary() const
{
    std::ostringstream os;
    if (skipped) {
        os << "skipped: " << skipReason;
        return os.str();
    }
    os << executorRuns << " runs, " << prefixesRun << " prefixes"
       << (trapped ? ", trapped" : "")
       << (threaded ? ", threaded" : "");
    for (const auto &d : divergences)
        os << "\n  [" << d.stage << "] " << d.detail;
    return os.str();
}

namespace {

DiffReport
diffProgram(const vm::Program &prog, bool threaded,
            const ReplayStamp &replay)
{
    DiffReport report;
    report.threaded = threaded;

    // One bytecode-interpreter run, profiling when `profile` is set.
    auto interpret = [&](vm::Profile *profile) {
        vm::Interpreter interp(prog, profile, kHeapWords);
        Outcome out;
        try {
            const vm::InterpResult r = interp.run(kMaxSteps);
            out.completed = r.completed;
            out.trap = r.trap;
        } catch (const vm::Trap &t) {
            out.trap = t;
        }
        out.output = interp.output();
        out.digest = heapDigest(interp.heap());
        out.digestValid = true;
        report.executorRuns++;
        return out;
    };

    // --- Reference: the plain bytecode interpreter. ------------------
    const Outcome ref = interpret(nullptr);
    report.trapped = ref.trap.has_value();
    if (!ref.completed && !ref.trap) {
        report.skipped = true;
        report.skipReason = "reference interpreter hit step budget";
        return report;
    }

    // --- Profiling interpreter (must not perturb semantics). ---------
    vm::Profile profile(prog);
    compareOutcome(report, "interp+profile", ref, interpret(&profile),
                   true);

    // Shared layout heap: codegen bakes vtable/subtype addresses.
    vm::Heap layout_heap(prog, kHeapWords);
    const hw::LayoutInfo layout = hw::LayoutInfo::fromHeap(layout_heap);

    auto runEval = [&](const ir::Module &mod, uint64_t force_abort,
                       const std::string &stage) {
        ir::Evaluator eval(mod, kHeapWords);
        eval.forceAbortPeriod = force_abort;
        Outcome got;
        ir::EvalResult r;
        try {
            r = eval.run(kMaxSteps);
            got.completed = r.completed;
            got.trap = r.trap;
        } catch (const vm::Trap &t) {
            got.trap = t;
        }
        got.output = eval.output();
        got.digest = heapDigest(eval.finalHeap());
        got.digestValid = true;
        report.executorRuns++;
        compareOutcome(report, stage, ref, got, true);
        return r;
    };

    // --- The IR evaluator after every compileProgram stage. ----------
    // Small-body region tuning (the paper's defaults form nothing on
    // tiny programs) and postdom on, so all seven stages run and a
    // divergence names the first that broke equivalence. Threaded
    // programs skip the evaluator (it rejects Spawn). No pass moves or
    // removes an allocation, so heap digests compare at every stage.
    // The region-scalar module is the abort-cause reference and runs
    // on the machine below.
    core::CompilerConfig config = core::CompilerConfig::atomic();
    config.region = core::RegionConfig::smallBodies();
    config.postdomCheckElim = true;
    ir::EvalResult atomic_eval_result;
    hw::MachineProgram atomic_code;
    const core::Compiled atomic = core::compileProgram(
        prog, profile, config,
        [&](core::Stage stage, const ir::Module &mod) {
            for (const auto &[mid, func] : mod.funcs)
                ir::verifyOrDie(func);
            const bool reference = stage == core::Stage::RegionScalar;
            if (!threaded) {
                const ir::EvalResult r = runEval(
                    mod, 0, std::string("eval:") + core::stageName(stage));
                report.prefixesRun++;
                if (reference) {
                    atomic_eval_result = r;
                    runEval(mod, kEvalForceAbortPeriod,
                            "eval:forced-abort");
                }
            }
            if (reference)
                atomic_code = hw::lowerModule(mod, layout);
        });

    // --- Machine runs. -----------------------------------------------
    struct MachineOutcome
    {
        Outcome out;
        hw::MachineResult res;
    };

    auto runMachine = [&](const hw::MachineProgram &mp,
                          const hw::HwConfig &geometry,
                          hw::TraceSink *sink, const std::string &stage,
                          bool digest_comparable) {
        hw::Machine machine(mp, geometry, sink, kHeapWords);
        hw::RollbackOracle oracle;
        machine.setOracle(&oracle);
        hw::BisimOracle bisim(mp);
        if (!replay.command.empty())
            bisim.setReplayInfo(replay.seed, replay.command);
        machine.setBisimOracle(&bisim);
        MachineOutcome mo;
        try {
            mo.res = machine.run(kMachineMaxUops);
            mo.out.completed = mo.res.completed;
            mo.out.trap = mo.res.trap;
        } catch (const vm::Trap &t) {
            mo.out.trap = t;
        }
        mo.out.output = mo.res.output;
        mo.out.digest = heapDigest(machine.heap());
        // The machine deliberately leaks the bump-pointer advance of
        // aborted regions, so its image is only byte-comparable to
        // the interpreter's when no region ever aborted; with threads
        // a trap freezes the other context at an interleaving-
        // dependent point.
        uint64_t aborts = 0;
        for (const auto &[key, rr] : mo.res.regions)
            aborts += rr.totalAborts();
        mo.out.digestValid = digest_comparable && aborts == 0 &&
            !(threaded && mo.out.trap.has_value());
        report.executorRuns++;
        compareOutcome(report, stage, ref, mo.out, true);
        for (const auto &d : oracle.divergences())
            report.divergences.push_back(
                {stage + ":oracle",
                 "ctx " + std::to_string(d.ctxId) + ": " + d.what});
        for (const auto &d : bisim.divergences())
            report.divergences.push_back(
                {stage + ":bisim",
                 "ctx " + std::to_string(d.ctxId) + ": " + d.what});
        return mo;
    };

    const hw::HwConfig defaults;

    // D: the baseline compile the figures run (region-free) — pure
    // codegen/machine check.
    const core::Compiled baseline = core::compileProgram(
        prog, profile, core::CompilerConfig::baseline());
    runMachine(hw::lowerModule(baseline.mod, layout), defaults, nullptr,
               "machine:baseline", true);

    // A: the region-scalar module under default geometry.
    const MachineOutcome runA = runMachine(
        atomic_code, defaults, nullptr, "machine:atomic", true);

    // B: identical, but with the timing model observing the trace.
    // Timing must be a pure observer: architectural results (and the
    // heap image, leaks included) must match run A *exactly*.
    hw::TimingModel timing(hw::TimingConfig::baseline());
    const MachineOutcome runB = runMachine(atomic_code, defaults, &timing,
                                           "machine:timing", true);
    if (runB.out.output != runA.out.output ||
        runB.out.digest != runA.out.digest ||
        trapString(runB.out.trap) != trapString(runA.out.trap) ||
        runB.res.retiredUops != runA.res.retiredUops ||
        runB.res.regionAborts != runA.res.regionAborts) {
        report.divergences.push_back(
            {"machine:timing-observer",
             "timing-attached run differs from plain run: "
             "digest " + std::to_string(runB.out.digest) + " vs " +
             std::to_string(runA.out.digest) + ", retired " +
             std::to_string(runB.res.retiredUops) + " vs " +
             std::to_string(runA.res.retiredUops)});
    }

    // C: hostile geometry on the final module — tiny speculative
    // cache and aggressive interrupts force the abort paths.
    hw::HwConfig hostile;
    hostile.l1Lines = 16;
    hostile.l1Assoc = 2;
    hostile.interruptPeriod = 997;
    runMachine(hw::lowerModule(atomic.mod, layout), hostile, nullptr,
               "machine:hostile", false);

    // --- Telemetry-visible abort causes. -----------------------------
    // Explicit (assert-id) abort counts must agree between the
    // evaluator and the machine, but only when no asynchronous abort
    // source fired on the machine (an interrupt/conflict/overflow
    // abort re-executes the region and can legitimately change which
    // asserts run).
    if (!threaded) {
        uint64_t async = 0;
        std::map<std::pair<int, int>, uint64_t> machine_explicit;
        for (const auto &[key, rr] : runA.res.regions) {
            async +=
                rr.abortsByCause[static_cast<int>(
                    hw::AbortCause::Conflict)] +
                rr.abortsByCause[static_cast<int>(
                    hw::AbortCause::Overflow)] +
                rr.abortsByCause[static_cast<int>(
                    hw::AbortCause::Interrupt)] +
                rr.abortsByCause[static_cast<int>(
                    hw::AbortCause::Io)];
            for (const auto &[assert_id, count] : rr.abortsByAssert)
                machine_explicit[{key.first, assert_id}] += count;
        }
        if (async == 0 &&
            machine_explicit != atomic_eval_result.abortCounts) {
            std::ostringstream os;
            os << "explicit abort counts differ: machine={";
            for (const auto &[k, v] : machine_explicit)
                os << " m" << k.first << "/a" << k.second << "=" << v;
            os << " } eval={";
            for (const auto &[k, v] : atomic_eval_result.abortCounts)
                os << " m" << k.first << "/a" << k.second << "=" << v;
            os << " }";
            report.divergences.push_back({"abort-causes", os.str()});
        }
    }

    return report;
}

} // namespace

DiffReport
runDiff(const vm::Program &prog, bool threaded)
{
    return diffProgram(prog, threaded, {});
}

DiffReport
runDiff(const GenProgram &gp)
{
    const vm::Program prog = renderProgram(gp);
    return diffProgram(prog, usesThreads(gp),
                       {gp.seed, "fuzz_diff --masks " +
                                     maskName(gp.features) + " --start " +
                                     std::to_string(gp.seed) +
                                     " --seeds 1"});
}

} // namespace aregion::testing
