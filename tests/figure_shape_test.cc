/**
 * @file
 * Regression tests for the paper's qualitative result shapes (so
 * future changes cannot silently break the reproduction):
 *
 *  - atomic+aggressive-inline wins on average; hsqldb and xalan win
 *    big; pmd loses in atomic (profile drift); jython loses in
 *    atomic but recovers with forced-monomorphic partial inlining;
 *  - average retired-uop reduction is positive and significant;
 *  - degraded region primitives (Figure 9) erase most of the win;
 *  - SLE is the dominant source of the monitor-heavy benchmarks'
 *    speedup.
 *
 * These run the real workloads and take a few seconds; they live in
 * their own binary so unit-test runs stay fast.
 */

#include <gtest/gtest.h>

#include "bench_common.hh"
#include "support/statistics.hh"

namespace {

using namespace aregion;
using namespace aregion::bench;

/** Figure 7's grid: every analog under the paper's configurations,
 *  jython's grey bar included, with request ids by workload and
 *  config name. */
struct SuiteRuns
{
    Grid grid;
    std::map<std::string, std::map<std::string, size_t>> ids;

    const rt::RunMetrics &
    at(const std::string &workload, const std::string &config) const
    {
        return grid[ids.at(workload).at(config)];
    }
};

const SuiteRuns &
suiteRuns()
{
    static const SuiteRuns runs = [] {
        SuiteRuns out;
        for (const wl::Workload &w : wl::dacapoSuite()) {
            for (const core::CompilerConfig &cc :
                 paperConfigs(w.name == "jython"))
                out.ids[w.name][cc.name] = out.grid.request(w, experiment(cc));
        }
        out.grid.run();
        return out;
    }();
    return runs;
}

double
speedup(const std::string &workload, const std::string &config)
{
    return speedupPct(suiteRuns().at(workload, "no-atomic"),
                      suiteRuns().at(workload, config));
}

TEST(FigureShape, AtomicAggressiveWinsOnAverage)
{
    std::vector<double> speedups;
    for (const auto &w : wl::dacapoSuite())
        speedups.push_back(speedup(w.name, "atomic+aggr-inline"));
    EXPECT_GT(mean(speedups), 5.0);
}

TEST(FigureShape, HsqldbAndXalanWinBig)
{
    EXPECT_GT(speedup("hsqldb", "atomic+aggr-inline"), 10.0);
    EXPECT_GT(speedup("xalan", "atomic+aggr-inline"), 15.0);
}

TEST(FigureShape, PmdLosesUnderProfileDrift)
{
    EXPECT_LT(speedup("pmd", "atomic"), 0.0);
}

TEST(FigureShape, JythonLosesInAtomicButGreyBarRecovers)
{
    EXPECT_LT(speedup("jython", "atomic"), 0.0);
    EXPECT_GT(speedup("jython", "atomic+forced-mono"), 5.0);
    EXPECT_GT(speedup("jython", "atomic+aggr-inline"), 5.0);
}

TEST(FigureShape, UopReductionTracksFigure8)
{
    std::vector<double> reductions;
    for (const auto &w : wl::dacapoSuite()) {
        reductions.push_back(
            uopReductionPct(suiteRuns().at(w.name, "no-atomic"),
                            suiteRuns().at(w.name, "atomic+aggr-inline")));
    }
    EXPECT_GT(mean(reductions), 3.0);
    // xalan and hsqldb individually shed a solid fraction.
    EXPECT_GT(uopReductionPct(suiteRuns().at("hsqldb", "no-atomic"),
                              suiteRuns().at("hsqldb", "atomic+aggr-inline")),
              8.0);
}

TEST(FigureShape, DegradedPrimitivesEraseTheWin)
{
    // Figure 9 on the two biggest winners: per workload, baseline
    // and atomic+aggr-inline code on the checkpoint machine, then on
    // the 20-cycle begin stall.
    const std::vector<std::string> names{"xalan", "hsqldb"};
    Grid grid;
    for (const std::string &name : names) {
        for (const hw::TimingConfig &machine :
             {hw::TimingConfig::baseline(), hw::TimingConfig::stallBegin()}) {
            for (const core::CompilerConfig &cc :
                 {core::CompilerConfig::baseline(),
                  core::CompilerConfig::atomicAggressiveInline()})
                grid.request(wl::workloadByName(name), experiment(cc, machine));
        }
    }
    grid.run();
    for (size_t wi = 0; wi < names.size(); ++wi) {
        const double s_chk = speedupPct(grid[4 * wi], grid[4 * wi + 1]);
        const double s_stall = speedupPct(grid[4 * wi + 2], grid[4 * wi + 3]);
        EXPECT_LT(s_stall, s_chk / 2) << names[wi];
    }
}

TEST(FigureShape, Table3CharacteristicsHold)
{
    for (const auto &w : wl::dacapoSuite()) {
        const auto &m = suiteRuns().at(w.name, "atomic+aggr-inline");
        SCOPED_TRACE(w.name);
        EXPECT_GT(m.uniqueRegions, 0);
        EXPECT_GT(m.coverage, 0.0);
        EXPECT_LE(m.coverage, 1.0);
        // abort rates stay in the "few percent" regime everywhere.
        EXPECT_LT(m.abortPct, 0.15);
    }
    // Relative coverage ordering: jython/xalan/hsqldb high, antlr low.
    const auto cov = [&](const char *n) {
        return suiteRuns().at(n, "atomic+aggr-inline").coverage;
    };
    EXPECT_GT(cov("jython"), cov("antlr"));
    EXPECT_GT(cov("xalan"), cov("antlr"));
    EXPECT_GT(cov("hsqldb"), cov("pmd"));
}

TEST(FigureShape, OutputsIdenticalAcrossAllConfigs)
{
    for (const auto &w : wl::dacapoSuite()) {
        SCOPED_TRACE(w.name);
        const uint64_t want =
            suiteRuns().at(w.name, "no-atomic").outputChecksum;
        for (const auto &[name, id] : suiteRuns().ids.at(w.name))
            EXPECT_EQ(suiteRuns().grid[id].outputChecksum, want) << name;
    }
}

} // namespace
