/**
 * @file
 * Regenerates the Section 6.3 modest-microarchitecture experiment:
 * the relative speedups of atomic-region code must closely track the
 * 4-wide results on a 2-wide OOO machine and on a 2-wide machine
 * with halved structures and caches ("within a percent or two").
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
    BenchReport report("sec63_width", argc, argv);
    std::printf("Section 6.3: atomic+aggr-inline speedup across "
                "machine widths\n\n");
    TextTable table({"bench", "4-wide", "2-wide", "2-wide-half"});
    const std::vector<hw::TimingConfig> machines{
        hw::TimingConfig::baseline(), hw::TimingConfig::twoWide(),
        hw::TimingConfig::twoWideHalf()};
    std::map<int, std::vector<double>> averages;

    const std::vector<BuiltWorkload> built =
        buildPrograms(suitePointers());
    std::vector<std::vector<WorkloadRuns>> byMachine;
    for (const hw::TimingConfig &machine : machines) {
        byMachine.push_back(runSuiteGrid(
            built,
            {core::CompilerConfig::baseline(),
             core::CompilerConfig::atomicAggressiveInline()},
            machine));
    }
    for (size_t wi = 0; wi < built.size(); ++wi) {
        std::vector<std::string> row{built[wi].workload->name};
        for (size_t m = 0; m < machines.size(); ++m) {
            const WorkloadRuns &runs = byMachine[m][wi];
            const double s = speedupPct(
                runs.byConfig.at("no-atomic"),
                runs.byConfig.at("atomic+aggr-inline"));
            row.push_back(TextTable::fmt(s, 1) + "%");
            averages[static_cast<int>(m)].push_back(s);
        }
        table.addRow(std::move(row));
    }
    std::vector<std::string> avg{"average"};
    for (size_t m = 0; m < machines.size(); ++m)
        avg.push_back(TextTable::fmt(
            mean(averages[static_cast<int>(m)]), 1) + "%");
    table.addRow(std::move(avg));
    std::printf("%s\n", table.render().c_str());
    std::printf("The paper reports the narrow machines track the "
                "4-wide speedups\n(generally within a percent or "
                "two).\n");
    report.addTable("sec63", table);
    return report.finish();
}
