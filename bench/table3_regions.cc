/**
 * @file
 * Regenerates Table 3: atomic region statistics for the
 * atomic+aggressive-inlining configuration — region coverage
 * (fraction of retired uops inside regions), unique executed
 * regions, average dynamic region size, abort percentage, and
 * aborts per 1,000 uops.
 */

#include <cstdio>

#include "bench_common.hh"
#include "support/table.hh"

using namespace aregion;
using namespace aregion::bench;

int
main(int argc, char **argv)
{
    BenchReport report("table3_regions", argc, argv);
    std::printf("Table 3: atomic region statistics "
                "(atomic+aggressive-inline)\n");
    std::printf("(paper values in parentheses)\n\n");

    TextTable table({"bench", "coverage", "(p)", "unique", "(p)",
                     "size", "(p)", "abort%", "(p)", "per-1k",
                     "(p)"});
    const std::vector<WorkloadRuns> suite =
        runSuiteGrid(buildPrograms(suitePointers()),
                     {core::CompilerConfig::atomicAggressiveInline()});
    for (const WorkloadRuns &runs : suite) {
        const auto &m = runs.byConfig.at("atomic+aggr-inline");
        const auto &paper = paperTable3().at(runs.workload);
        table.addRow({
            runs.workload,
            TextTable::pct(m.coverage, 0),
            "(" + TextTable::fmt(paper.coveragePct, 0) + "%)",
            std::to_string(m.uniqueRegions),
            "(" + std::to_string(paper.unique) + ")",
            TextTable::fmt(m.avgRegionSize, 0),
            "(" + std::to_string(paper.size) + ")",
            TextTable::pct(m.abortPct, 2),
            "(" + TextTable::fmt(paper.abortPct, 2) + "%)",
            TextTable::fmt(m.abortsPer1kUops, 3),
            "(" + TextTable::fmt(paper.abortsPer1k, 4) + ")",
        });
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("coverage: retired uops inside atomic regions.\n"
                "size: mean dynamic uops per committed region.\n");
    report.addTable("table3", table);
    return report.finish();
}
