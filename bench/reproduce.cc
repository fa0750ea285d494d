/**
 * @file
 * Regenerates the paper: every figure, table and ablation of the
 * experiment index in DESIGN.md, in print order (figures.hh). The
 * figures queue their experiments on one Grid, which runs each
 * distinct (program, ExperimentConfig) pair once on the parallel
 * driver; then each figure prints from its results.
 *
 *   reproduce [--json <path>]
 *
 * `--json` also writes every table plus the telemetry snapshot, in
 * which bench.reproduce.requested counts the experiments the figures
 * asked for and bench.reproduce.distinct the cells that ran them.
 */

#include <cstdio>

#include "figures.hh"

using namespace aregion::bench;

int
main(int argc, char **argv)
{
    BenchReport report("reproduce", argc, argv);
    rejectStrayArgs(argc, argv, "reproduce [--json <path>]");

    Grid grid;
    const std::vector<Figure> paper = planPaper(grid);
    grid.run();
    for (const Figure &figure : paper) {
        report.addTable(figure.title, figure.render());
        std::printf("\n");
    }
    report.addMetric("requested", static_cast<double>(grid.requested()));
    report.addMetric("distinct", static_cast<double>(grid.distinct()));
    return report.finish();
}
