#include "suite.hh"

#include <chrono>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <tuple>

#include "bench_common.hh"
#include "runtime/service/code_cache.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/random.hh"
#include "testing/random_program.hh"
#include "vm/interpreter.hh"
#include "workloads/workload.hh"

namespace aregion::perfbench {

namespace {

namespace wl = aregion::workloads;
using core::CompilerConfig;
using hw::TimingConfig;
using Clock = std::chrono::steady_clock;

/** Corpus programs generated per second of run time: 1.1 to 1.5 times
 *  the rate the reference host completes them (README.md), which
 *  bounds the memory the corpus holds. A build fast enough to run out
 *  ends the run early, with a warning; its windows still measure
 *  whole. */
constexpr double kCorpusProgramsPerSecond = 800;
constexpr size_t kCorpusMinPrograms = 64;

/** Programs of the corpus the traced run measures (two cells each). */
constexpr size_t kCorpusTracedPrograms = 256;

/** Trap-free and thread-free, so every program completes on one
 *  context: arrays, objects, virtual chains, monitors and biased
 *  hot/cold diamonds that make regions abort. */
constexpr uint32_t kCorpusFeatures =
    testing::kArrays | testing::kObjects | testing::kVirtualChains |
    testing::kMonitors | testing::kAbortShapes;

/** Run `fn(program, index)` over every program through
 *  parallel::runGrid, each worker taking a fixed contiguous share, so
 *  that each worker allocates the same programs on every run and peak
 *  memory repeats. */
template <typename F>
void
forEachProgram(Suite &suite, F &&fn)
{
    const size_t n = suite.programs.size();
    const size_t shares = parallel::plannedThreads(n);
    parallel::runGrid(shares, [&](size_t s) {
        for (size_t i = s * n / shares; i < (s + 1) * n / shares; ++i)
            fn(suite.programs[i], i);
    });
}

runtime::ExperimentConfig
experiment(const CompilerConfig &cc,
           const TimingConfig &timing = TimingConfig::baseline())
{
    runtime::ExperimentConfig config;
    config.compiler = cc;
    config.timing = timing;
    return config;
}

/**
 * The runExperiment requests the figure, table and ablation binaries
 * make on the seven DaCapo analogs, cell for cell (bench/<name>.cc),
 * repeats included: they are the traffic an experiment store would
 * remove. fig3_redundancy and ablation_postdom run a hand-written
 * sample program instead and are left out.
 */
void
addPaperCells(Suite &suite)
{
    std::map<std::string, size_t> index;
    for (const wl::Workload &w : wl::dacapoSuite()) {
        index[w.name] = suite.programs.size();
        ProgramPair p;
        p.name = w.name;
        p.measure = w.build(false);
        p.profileVariant = w.build(true);
        p.samples = w.samples;
        suite.programs.push_back(std::move(p));
    }
    auto add = [&](const char *source, const std::string &workload,
                   runtime::ExperimentConfig config,
                   const std::string &detail = "") {
        Cell cell;
        cell.label = std::string(source) + " " + workload + " " +
                     config.compiler.name;
        if (config.timing.name != TimingConfig::baseline().name)
            cell.label += " on " + config.timing.name;
        if (!detail.empty())
            cell.label += " " + detail;
        cell.program = index.at(workload);
        cell.config = std::move(config);
        suite.cells.push_back(std::move(cell));
    };

    const CompilerConfig base = CompilerConfig::baseline();
    const CompilerConfig aggr = CompilerConfig::atomicAggressiveInline();
    for (const wl::Workload &w : wl::dacapoSuite()) {
        for (const CompilerConfig &cc :
             bench::paperConfigs(w.name == "jython"))
            add("fig7_speedup", w.name, experiment(cc));
        for (const CompilerConfig &cc : bench::paperConfigs())
            add("fig8_uops", w.name, experiment(cc));
        for (const TimingConfig &m :
             {TimingConfig::baseline(), TimingConfig::stallBegin(),
              TimingConfig::singleInflight()}) {
            for (const CompilerConfig &cc : {base, aggr})
                add("fig9_sensitivity", w.name, experiment(cc, m));
        }
        for (const TimingConfig &m :
             {TimingConfig::baseline(), TimingConfig::twoWide(),
              TimingConfig::twoWideHalf()}) {
            for (const CompilerConfig &cc : {base, aggr})
                add("sec63_width", w.name, experiment(cc, m));
        }
        add("table3_regions", w.name, experiment(aggr));
        add("sec62_footprint", w.name, experiment(aggr));

        CompilerConfig no_sle = aggr;
        no_sle.sle = false;
        add("ablation_sle", w.name, experiment(base));
        add("ablation_sle", w.name, experiment(no_sle), "sle=off");
        add("ablation_sle", w.name, experiment(aggr));
    }
    add("fig1_motivation", "jython", experiment(base));
    add("fig1_motivation", "jython", experiment(aggr));

    for (const char *name : {"xalan", "hsqldb", "jython", "bloat"}) {
        CompilerConfig elide = aggr;
        elide.elideSafepointsInRegions = true;
        add("ablation_safepoint", name, experiment(base));
        add("ablation_safepoint", name, experiment(aggr));
        add("ablation_safepoint", name, experiment(elide),
            "safepoint-elision=on");
    }

    const std::vector<std::string> sized{"xalan", "hsqldb", "jython"};
    for (const std::string &name : sized)
        add("ablation_region_size", name, experiment(base));
    for (const double r : {25.0, 50.0, 100.0, 200.0, 400.0, 800.0}) {
        for (const std::string &name : sized) {
            CompilerConfig cc = aggr;
            cc.region.targetSize = r;
            cc.region.loopPathThreshold = r;
            add("ablation_region_size", name, experiment(cc),
                "R=" + std::to_string(static_cast<int>(r)));
        }
    }

    for (const char *name : {"pmd", "bloat", "hsqldb"}) {
        add("ablation_adaptive", name, experiment(base));
        for (const bool adaptive : {false, true}) {
            runtime::ExperimentConfig config = experiment(aggr);
            config.adaptiveRecompile = adaptive;
            add("ablation_adaptive", name, std::move(config),
                adaptive ? "adaptive" : "static");
        }
    }
    suite.shuffle = true;
    suite.tracedCells = suite.cells.size();
}

/** Distinct generated programs, each under the baseline and the
 *  atomic+aggr-inline compiler. */
void
addCorpusCells(Suite &suite, uint64_t seed, double seconds)
{
    const size_t programs = std::max(
        kCorpusMinPrograms,
        static_cast<size_t>(std::ceil(seconds * kCorpusProgramsPerSecond)));
    suite.programs.resize(programs);
    forEachProgram(suite, [&](ProgramPair &p, size_t i) {
        const uint64_t gen_seed = mixSeed(seed, i);
        testing::RandomProgramGen gen(gen_seed, kCorpusFeatures);
        p.name = "program seed=" + std::to_string(gen_seed);
        p.measure = testing::renderProgram(gen.generate());
    });
    for (size_t i = 0; i < programs; ++i) {
        for (const CompilerConfig &cc :
             {CompilerConfig::baseline(),
              CompilerConfig::atomicAggressiveInline()}) {
            Cell cell;
            cell.label = "corpus " + suite.programs[i].name + " " +
                         cc.name;
            cell.program = i;
            cell.config = experiment(cc);
            suite.cells.push_back(std::move(cell));
        }
    }
    suite.repeats = false;
    suite.tracedCells =
        std::min(suite.cells.size(), 2 * kCorpusTracedPrograms);
}

/** bench_contention's sweep: every shared-heap workload at 2 to 32
 *  worker contexts. */
void
addContentionCells(Suite &suite)
{
    for (const int contexts : {2, 4, 8, 16, 32}) {
        for (const ct::ContentionWorkload &w : ct::contentionSuite()) {
            ProgramPair p;
            p.name = w.name + " contexts=" + std::to_string(contexts);
            p.contexts = contexts;
            p.measure = w.build(contexts, false);
            p.profileVariant = w.build(contexts, true);
            Cell cell;
            cell.label = "contention " + p.name;
            cell.program = suite.programs.size();
            cell.contention = &w;
            suite.programs.push_back(std::move(p));
            suite.cells.push_back(std::move(cell));
        }
    }
    suite.tracedCells = suite.cells.size();
}

/** The interpreter's output checksum for `p.measure`, on the heap and
 *  contexts the cell's own pipeline gives it. */
void
computeReference(ProgramPair &p)
{
    const auto start = Clock::now();
    const ct::ContentionRunConfig contention;
    std::optional<vm::Interpreter> interp;
    if (p.contexts > 0)
        interp.emplace(p.measure, nullptr, contention.heapWords,
                       p.contexts + 1);
    else
        interp.emplace(p.measure);
    const vm::InterpResult res = interp->run();
    if (!res.completed)
        AREGION_FATAL("reference run of ", p.name, " did not complete");
    p.refChecksum = interp->outputChecksum();
    p.refSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();
}

/** FNV-1a step, for census keys built from several fields. */
uint64_t
fold(uint64_t h, uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 1099511628211ULL;
    }
    return h;
}

/** Everything besides the compiled code that decides a functional
 *  execution. */
uint64_t
executionKey(const Cell &cell, const ProgramPair &p)
{
    const runtime::ExperimentConfig &c = cell.config;
    uint64_t h = 1469598103934665603ULL;
    for (const uint64_t v :
         {static_cast<uint64_t>(c.hw.l1Lines),
          static_cast<uint64_t>(c.hw.l1Assoc),
          static_cast<uint64_t>(c.hw.lineWords), c.hw.interruptPeriod,
          c.hw.quantum, static_cast<uint64_t>(c.hw.maxContexts),
          c.hw.maxConsecutiveAborts,
          static_cast<uint64_t>(c.adaptiveRecompile),
          static_cast<uint64_t>(c.resilience.enabled),
          static_cast<uint64_t>(p.contexts)})
        h = fold(h, v);
    return h;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{"paper", "corpus",
                                                "contention"};
    return names;
}

uint64_t
mixSeed(uint64_t seed, uint64_t index)
{
    Rng rng(seed ^ (index * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL));
    return rng.next();
}

std::vector<size_t>
passOrder(const Suite &suite, uint64_t seed, uint64_t pass)
{
    std::vector<size_t> order(suite.cells.size());
    std::iota(order.begin(), order.end(), size_t{0});
    if (suite.shuffle) {
        Rng rng(mixSeed(seed, pass));
        for (size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
    }
    return order;
}

Suite
buildSuite(const std::string &workload, uint64_t seed, double seconds)
{
    Suite suite;
    suite.workload = workload;
    if (workload == "paper")
        addPaperCells(suite);
    else if (workload == "corpus")
        addCorpusCells(suite, seed, seconds);
    else if (workload == "contention")
        addContentionCells(suite);
    else
        AREGION_FATAL("unknown workload ", workload);
    forEachProgram(suite,
                   [](ProgramPair &p, size_t) { computeReference(p); });
    return suite;
}

Census
census(const Suite &suite)
{
    namespace svc = runtime::service;
    std::vector<uint64_t> measure(suite.programs.size());
    std::vector<uint64_t> profile(suite.programs.size());
    for (size_t i = 0; i < suite.programs.size(); ++i) {
        const ProgramPair &p = suite.programs[i];
        measure[i] = svc::hashProgram(p.measure);
        profile[i] = p.profileVariant ? svc::hashProgram(*p.profileVariant)
                                      : measure[i];
    }
    std::set<uint64_t> profiles;
    std::set<std::tuple<uint64_t, uint64_t, uint64_t>> compiles;
    std::set<std::tuple<uint64_t, uint64_t, uint64_t, uint64_t>> execs;
    for (const Cell &cell : suite.cells) {
        // Contention cells all compile with the harness's one
        // configuration, so the program identifies the compile.
        const uint64_t config =
            cell.contention
                ? 0
                : svc::hashCompilerConfig(cell.config.compiler);
        const uint64_t m = measure[cell.program];
        const uint64_t p = profile[cell.program];
        profiles.insert(p);
        compiles.insert({m, p, config});
        execs.insert({m, p, config,
                      executionKey(cell, suite.programs[cell.program])});
    }
    return {suite.cells.size(), profiles.size(), compiles.size(),
            execs.size()};
}

} // namespace aregion::perfbench
