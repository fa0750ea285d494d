/**
 * @file
 * Shared pipeline for the golden-value regression net: runs one
 * workload through the profile -> compile -> functional-machine
 * pipeline (no timing sink) and condenses the architectural results
 * into a small comparable row. Used by tests/hw_machine_golden_test.cc
 * (compares against checked-in values) and tools/golden_gen (prints a
 * fresh table to paste after an *intentional* behaviour change).
 */

#ifndef AREGION_TESTS_GOLDEN_HARNESS_HH
#define AREGION_TESTS_GOLDEN_HARNESS_HH

#include <cstdint>
#include <string>

#include "core/compiler.hh"
#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "support/fnv.hh"
#include "vm/interpreter.hh"
#include "workloads/workload.hh"

namespace aregion::test {

/** Condensed architectural results of one workload run. */
struct GoldenRow
{
    std::string workload;
    uint64_t outputChecksum = 0;    ///< MachineResult::outputChecksum
    uint64_t interpChecksum = 0;    ///< interpreter's output, same hash
    uint64_t retiredUops = 0;
    uint64_t regionEntries = 0;
    uint64_t regionCommits = 0;
    uint64_t regionAborts = 0;
    /** FNV-1a over every static region's (method, regionId, entries,
     *  commits, abortsByCause[0..5]) tuple, in map order. */
    uint64_t regionFingerprint = 0;
};

/** Profile on the profiling input, compile the measurement input
 *  with atomic+aggressive-inline, run the functional machine, and
 *  run the interpreter on the same input for cross-validation. */
inline GoldenRow
runGoldenPipeline(const workloads::Workload &w)
{
    const vm::Program profile_prog = w.build(true);
    const vm::Program measure_prog = w.build(false);

    vm::Profile profile(profile_prog);
    {
        vm::Interpreter interp(profile_prog, &profile);
        interp.run();
    }
    core::Compiled compiled = core::compileProgram(
        measure_prog, profile,
        core::CompilerConfig::atomicAggressiveInline());
    vm::Heap layout_heap(measure_prog, 1 << 16);
    const hw::MachineProgram mp = hw::lowerModule(
        compiled.mod, hw::LayoutInfo::fromHeap(layout_heap));

    hw::Machine machine(mp, hw::HwConfig{});
    const hw::MachineResult res = machine.run();

    GoldenRow row;
    row.workload = w.name;
    row.outputChecksum = res.outputChecksum();
    row.retiredUops = res.retiredUops;
    row.regionEntries = res.regionEntries;
    row.regionCommits = res.regionCommits;
    row.regionAborts = res.regionAborts;
    uint64_t h = 1469598103934665603ULL;
    for (const auto &[key, stats] : res.regions) {
        h = fnvWord(h, static_cast<uint64_t>(key.first));
        h = fnvWord(h, static_cast<uint64_t>(key.second));
        h = fnvWord(h, stats.entries);
        h = fnvWord(h, stats.commits);
        for (uint64_t c : stats.abortsByCause)
            h = fnvWord(h, c);
    }
    row.regionFingerprint = h;

    vm::Interpreter interp(measure_prog);
    interp.run();
    row.interpChecksum = interp.outputChecksum();
    return row;
}

} // namespace aregion::test

#endif // AREGION_TESTS_GOLDEN_HARNESS_HH
