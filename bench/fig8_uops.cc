/**
 * @file
 * Regenerates Figure 8: percentage reduction in retired
 * micro-operations relative to the baseline (no-atomic) binary.
 * The paper reads uop reduction as a proxy for energy efficiency.
 */

#include <cstdio>

#include "bench_common.hh"
#include "support/statistics.hh"
#include "support/table.hh"

using namespace aregion;
using namespace aregion::bench;

int
main(int argc, char **argv)
{
    BenchReport report("fig8_uops", argc, argv);
    const std::vector<std::string> configs{
        "atomic", "no-atomic+aggr-inline", "atomic+aggr-inline"};
    // Paper Figure 8 values (eyeballed).
    const std::map<std::string, std::map<std::string, double>> paper{
        {"antlr", {{"atomic", 17}, {"no-atomic+aggr-inline", 2},
                   {"atomic+aggr-inline", 17}}},
        {"bloat", {{"atomic", 6}, {"no-atomic+aggr-inline", 3},
                   {"atomic+aggr-inline", 15}}},
        {"fop", {{"atomic", 2}, {"no-atomic+aggr-inline", 1},
                 {"atomic+aggr-inline", 4}}},
        {"hsqldb", {{"atomic", 11}, {"no-atomic+aggr-inline", 5},
                    {"atomic+aggr-inline", 21}}},
        {"jython", {{"atomic", 2}, {"no-atomic+aggr-inline", 5},
                    {"atomic+aggr-inline", 14}}},
        {"pmd", {{"atomic", 1}, {"no-atomic+aggr-inline", 1},
                 {"atomic+aggr-inline", 2}}},
        {"xalan", {{"atomic", 14}, {"no-atomic+aggr-inline", 2},
                   {"atomic+aggr-inline", 14}}},
    };

    std::printf("Figure 8: %% micro-operation (uop) reduction over "
                "baseline (no-atomic)\n");
    std::printf("(paper values in parentheses)\n\n");

    TextTable table({"bench", "atomic", "(paper)",
                     "no-atomic+aggr", "(paper)", "atomic+aggr",
                     "(paper)"});
    std::map<std::string, std::vector<double>> averages;
    const std::vector<WorkloadRuns> suite =
        runSuiteGrid(buildPrograms(suitePointers()), paperConfigs());
    for (const WorkloadRuns &runs : suite) {
        const auto &base = runs.byConfig.at("no-atomic");
        std::vector<std::string> row{runs.workload};
        for (const auto &config : configs) {
            const double measured =
                uopReductionPct(base, runs.byConfig.at(config));
            row.push_back(TextTable::fmt(measured, 1) + "%");
            row.push_back("(" +
                          TextTable::fmt(
                              paper.at(runs.workload).at(config),
                              0) +
                          "%)");
            averages[config].push_back(measured);
        }
        table.addRow(std::move(row));
    }
    std::vector<std::string> avg_row{"average"};
    for (const auto &config : configs) {
        avg_row.push_back(
            TextTable::fmt(mean(averages[config]), 1) + "%");
        avg_row.push_back(config == "atomic+aggr-inline" ? "(11%)"
                                                         : "(-)");
    }
    table.addRow(std::move(avg_row));
    std::printf("%s\n", table.render().c_str());
    report.addTable("fig8", table);
    return report.finish();
}
