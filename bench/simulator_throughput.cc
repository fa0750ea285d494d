/**
 * @file
 * Host-performance microbenchmarks (google-benchmark): throughput of
 * the functional machine simulator, with and without the timing
 * model attached, and of the optimizing compiler itself. These are
 * about the simulator as an artifact (how long experiments take),
 * not about the paper's results.
 */

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_common.hh"
#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "hw/timing.hh"
#include "vm/interpreter.hh"

using namespace aregion;
using namespace aregion::bench;

namespace {

/** Set in main() so the benchmark bodies can publish their measured
 *  rates into the --json export (the `bench.simulator_throughput.*`
 *  gauges of BENCH_simulator.json). */
BenchReport *g_report = nullptr;

void
recordRate(const char *key, uint64_t events, double secs)
{
    if (g_report && secs > 0)
        g_report->addMetric(key, static_cast<double>(events) / secs);
}

double
secsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

struct Prepared
{
    vm::Program prog;
    hw::MachineProgram machine;
};

const Prepared &
prepared()
{
    // Filled in place: MachineProgram::prog points at p.prog, so the
    // Program must already live at its final address when compiled.
    static Prepared p = [] {
        Prepared fresh;
        fresh.prog = wl::workloadByName("xalan").build(false);
        return fresh;
    }();
    static const bool initialized = [] {
        vm::Profile profile(p.prog);
        {
            vm::Interpreter interp(p.prog, &profile);
            interp.run();
        }
        // Fold the profiling pass into the exported profile.*
        // aggregates (compileProgram publishes jit.compile_us
        // itself); without this the --json export carries zeros
        // next to non-zero per-pass timers.
        profile.publishTelemetry();
        core::Compiled compiled = core::compileProgram(
            p.prog, profile,
            core::CompilerConfig::atomicAggressiveInline());
        vm::Heap layout_heap(p.prog, 1 << 16);
        p.machine = hw::lowerModule(
            compiled.mod, hw::LayoutInfo::fromHeap(layout_heap));
        p.machine.prog = &p.prog;
        return true;
    }();
    (void)initialized;
    return p;
}

void
BM_FunctionalSimulator(benchmark::State &state)
{
    const Prepared &p = prepared();
    uint64_t uops = 0;
    const auto start = std::chrono::steady_clock::now();
    for (auto _ : state) {
        hw::Machine machine(p.machine, hw::HwConfig{});
        const auto res = machine.run();
        uops += res.allContextUops;
        benchmark::DoNotOptimize(res.retiredUops);
    }
    recordRate("functional_uops_per_sec", uops, secsSince(start));
    state.counters["uops/s"] = benchmark::Counter(
        static_cast<double>(uops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FunctionalSimulator)->Unit(benchmark::kMillisecond);

void
BM_FunctionalPlusTiming(benchmark::State &state)
{
    const Prepared &p = prepared();
    uint64_t uops = 0;
    const auto start = std::chrono::steady_clock::now();
    for (auto _ : state) {
        hw::TimingModel timing(hw::TimingConfig::baseline());
        hw::Machine machine(p.machine, hw::HwConfig{}, &timing);
        const auto res = machine.run();
        uops += res.allContextUops;
        benchmark::DoNotOptimize(timing.cycles());
        // Accumulate the model's counters into the registry so the
        // --json export can correlate throughput with behavioural
        // drift (cycles, stalls, mispredicts should never move).
        timing.publishTelemetry();
    }
    recordRate("functional_plus_timing_uops_per_sec", uops,
               secsSince(start));
    state.counters["uops/s"] = benchmark::Counter(
        static_cast<double>(uops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FunctionalPlusTiming)->Unit(benchmark::kMillisecond);

void
BM_Interpreter(benchmark::State &state)
{
    const Prepared &p = prepared();
    uint64_t instrs = 0;
    const auto start = std::chrono::steady_clock::now();
    for (auto _ : state) {
        vm::Interpreter interp(p.prog);
        const auto res = interp.run();
        instrs += res.instructions;
        benchmark::DoNotOptimize(res.instructions);
    }
    recordRate("interpreter_bytecodes_per_sec", instrs,
               secsSince(start));
    state.counters["bytecodes/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Interpreter)->Unit(benchmark::kMillisecond);

void
BM_AtomicCompiler(benchmark::State &state)
{
    const auto &w = wl::workloadByName("xalan");
    const vm::Program prog = w.build(false);
    vm::Profile profile(prog);
    {
        vm::Interpreter interp(prog, &profile);
        interp.run();
    }
    profile.publishTelemetry();
    for (auto _ : state) {
        core::Compiled compiled = core::compileProgram(
            prog, profile,
            core::CompilerConfig::atomicAggressiveInline());
        benchmark::DoNotOptimize(compiled.stats.totalInstrs);
    }
}
// Pinned iteration count: the `jit.compile_us`/`jit.pass.*_us`
// counters in BENCH_simulator.json accumulate across iterations, so
// with auto-scaled iterations a faster compiler runs MORE iterations
// and the counters barely move — snapshots from different versions
// would not be comparable. 150 matches the order of what the
// pre-SSA compiler ran in the default min-time budget.
BENCHMARK(BM_AtomicCompiler)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(150);

} // namespace

int
main(int argc, char **argv)
{
    // Strip --json before google-benchmark sees the flags it does
    // not recognize.
    BenchReport report("simulator_throughput", argc, argv);
    g_report = &report;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return report.finish();
}
