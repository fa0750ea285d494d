/**
 * @file
 * Regenerates Figure 1's motivation numbers on the jython analog:
 * the hottest loop's dynamic path executes hundreds of instructions
 * and many conditional branches per iteration under the baseline
 * compiler (the paper: 109 branches, > 600 instructions), and
 * isolating the hot path in atomic regions removes a large fraction
 * of them (the paper's manual analysis: more than two thirds).
 */

#include <cstdio>

#include "bench_common.hh"
#include "support/table.hh"

using namespace aregion;
using namespace aregion::bench;

int
main(int argc, char **argv)
{
    BenchReport report("fig1_motivation", argc, argv);
    const WorkloadRuns runs =
        runSuiteGrid(buildPrograms(suitePointers({"jython"})),
                     {core::CompilerConfig::baseline(),
                      core::CompilerConfig::atomicAggressiveInline()})
            .front();
    const auto &base = runs.byConfig.at("no-atomic");
    const auto &atomic = runs.byConfig.at("atomic+aggr-inline");

    // The dispatch loop executes 130 passes over a 128-op program.
    const double passes = 130;
    const double base_per_pass = base.weightedUops / passes;
    const double atomic_per_pass = atomic.weightedUops / passes;

    std::printf("Figure 1: the cost of control flow on the hottest "
                "loop (jython analog)\n\n");
    TextTable table({"metric", "baseline", "atomic regions",
                     "paper"});
    table.addRow({"uops per dispatch-loop pass",
                  TextTable::fmt(base_per_pass, 0),
                  TextTable::fmt(atomic_per_pass, 0),
                  ">600 -> ~1/3 kept"});
    table.addRow({"mispredicted branches (run)",
                  std::to_string(base.mispredicts),
                  std::to_string(atomic.mispredicts), "-"});
    table.addRow({"reduction in loop uops", "-",
                  TextTable::pct(1.0 - atomic_per_pass /
                                           base_per_pass, 1),
                  "up to 2/3 (manual)"});
    table.addRow({"unique atomic regions", "-",
                  std::to_string(atomic.uniqueRegions), "-"});
    table.addRow({"avg dynamic region size", "-",
                  TextTable::fmt(atomic.avgRegionSize, 0), "227"});
    std::printf("%s\n", table.render().c_str());
    std::printf("The CFG shapes of Figure 1(a)-(d) are demonstrated "
                "structurally by\nbench/fig5_formation and "
                "examples/region_explorer.\n");
    report.addTable("fig1", table);
    return report.finish();
}
