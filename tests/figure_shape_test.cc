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

struct SuiteRuns
{
    std::map<std::string, WorkloadRuns> byWorkload;
};

const SuiteRuns &
suiteRuns()
{
    static const SuiteRuns runs = [] {
        SuiteRuns out;
        for (WorkloadRuns &runs : runSuiteGrid(
                 buildPrograms(suitePointers()),
                 [](const wl::Workload &w) {
                     return paperConfigs(w.name == "jython");
                 })) {
            out.byWorkload.emplace(runs.workload, std::move(runs));
        }
        return out;
    }();
    return runs;
}

double
speedup(const std::string &workload, const std::string &config)
{
    const auto &runs = suiteRuns().byWorkload.at(workload);
    return speedupPct(runs.byConfig.at("no-atomic"),
                      runs.byConfig.at(config));
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
        const auto &runs = suiteRuns().byWorkload.at(w.name);
        reductions.push_back(uopReductionPct(
            runs.byConfig.at("no-atomic"),
            runs.byConfig.at("atomic+aggr-inline")));
    }
    EXPECT_GT(mean(reductions), 3.0);
    // xalan and hsqldb individually shed a solid fraction.
    const auto &x = suiteRuns().byWorkload.at("hsqldb");
    EXPECT_GT(uopReductionPct(x.byConfig.at("no-atomic"),
                              x.byConfig.at("atomic+aggr-inline")),
              8.0);
}

TEST(FigureShape, DegradedPrimitivesEraseTheWin)
{
    // Figure 9 on the two biggest winners.
    const std::vector<BuiltWorkload> built =
        buildPrograms(suitePointers({"xalan", "hsqldb"}));
    const std::vector<core::CompilerConfig> configs{
        core::CompilerConfig::baseline(),
        core::CompilerConfig::atomicAggressiveInline()};
    const auto chk =
        runSuiteGrid(built, configs, hw::TimingConfig::baseline());
    const auto stall =
        runSuiteGrid(built, configs, hw::TimingConfig::stallBegin());
    for (size_t wi = 0; wi < built.size(); ++wi) {
        const double s_chk = speedupPct(
            chk[wi].byConfig.at("no-atomic"),
            chk[wi].byConfig.at("atomic+aggr-inline"));
        const double s_stall = speedupPct(
            stall[wi].byConfig.at("no-atomic"),
            stall[wi].byConfig.at("atomic+aggr-inline"));
        EXPECT_LT(s_stall, s_chk / 2) << chk[wi].workload;
    }
}

TEST(FigureShape, Table3CharacteristicsHold)
{
    for (const auto &w : wl::dacapoSuite()) {
        const auto &m = suiteRuns().byWorkload.at(w.name)
                            .byConfig.at("atomic+aggr-inline");
        SCOPED_TRACE(w.name);
        EXPECT_GT(m.uniqueRegions, 0);
        EXPECT_GT(m.coverage, 0.0);
        EXPECT_LE(m.coverage, 1.0);
        // abort rates stay in the "few percent" regime everywhere.
        EXPECT_LT(m.abortPct, 0.15);
    }
    // Relative coverage ordering: jython/xalan/hsqldb high, antlr low.
    const auto cov = [&](const char *n) {
        return suiteRuns().byWorkload.at(n)
            .byConfig.at("atomic+aggr-inline").coverage;
    };
    EXPECT_GT(cov("jython"), cov("antlr"));
    EXPECT_GT(cov("xalan"), cov("antlr"));
    EXPECT_GT(cov("hsqldb"), cov("pmd"));
}

TEST(FigureShape, OutputsIdenticalAcrossAllConfigs)
{
    for (const auto &w : wl::dacapoSuite()) {
        SCOPED_TRACE(w.name);
        const auto &runs = suiteRuns().byWorkload.at(w.name);
        const uint64_t want =
            runs.byConfig.at("no-atomic").outputChecksum;
        for (const auto &[name, m] : runs.byConfig)
            EXPECT_EQ(m.outputChecksum, want) << name;
    }
}

} // namespace
