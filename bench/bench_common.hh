/**
 * @file
 * Shared harness for the table/figure benchmark binaries: runs a
 * workload under the paper's compiler configurations and computes
 * the derived metrics each table reports. Paper reference values
 * (eyeballed from the published figures) are carried alongside so
 * every binary prints measured-vs-paper columns.
 */

#ifndef AREGION_BENCH_COMMON_HH
#define AREGION_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/jit.hh"
#include "support/failpoint.hh"
#include "support/parallel.hh"
#include "support/table.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"
#include "workloads/workload.hh"

namespace aregion::bench {

namespace rt = aregion::runtime;
namespace core = aregion::core;
namespace hw = aregion::hw;
namespace wl = aregion::workloads;

/**
 * Shared CLI + export harness for the bench binaries.
 *
 * Every binary accepts `--json <path>`: alongside the usual stdout
 * tables it then writes a machine-readable JSON file containing each
 * table it registered plus the full process telemetry snapshot
 * (docs/TELEMETRY.md), so `BENCH_*.json` trajectories can be
 * automated (see EXPERIMENTS.md).
 *
 * Fault-injection flags (docs/RESILIENCE.md): `--inject
 * <name:spec,...>` arms failpoints for the whole run (same grammar
 * as AREGION_FAILPOINTS) and `--seed <n>` fixes the injection PRNG
 * seed. When either is given, the JSON export records the canonical
 * armed set and the seed so injected runs are reproducible from
 * their report alone.
 *
 * Usage in a binary:
 *
 *   int main(int argc, char **argv) {
 *       bench::BenchReport report("fig7_speedup", argc, argv);
 *       ...
 *       std::printf("%s\n", table.render().c_str());
 *       report.addTable("fig7", table);
 *       return report.finish();
 *   }
 */
class BenchReport
{
  public:
    /** Parses and strips `--json <path>` from argv (so wrapped
     *  argument parsers, e.g. google-benchmark's, never see it). */
    BenchReport(std::string bench_name, int &argc, char **argv)
        : name(std::move(bench_name))
    {
        // Stable schema: every export carries every documented key,
        // zero-valued when the binary never exercised it.
        telemetry::keys::preregister(telemetry::Registry::global());
        int out = 1;
        std::string inject_csv;
        std::string seed_arg;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--json" && i + 1 < argc) {
                jsonPath = argv[++i];
            } else if (arg == "--inject" && i + 1 < argc) {
                inject_csv = argv[++i];
            } else if (arg == "--seed" && i + 1 < argc) {
                seed_arg = argv[++i];
            } else {
                argv[out++] = argv[i];
            }
        }
        argc = out;
        auto &fps = failpoint::Registry::global();
        if (!seed_arg.empty()) {
            char *end = nullptr;
            const unsigned long long parsed =
                std::strtoull(seed_arg.c_str(), &end, 10);
            if (end == seed_arg.c_str() || *end != '\0') {
                std::fprintf(stderr, "--seed: not a number: %s\n",
                             seed_arg.c_str());
                std::exit(2);
            }
            fps.setSeed(static_cast<uint64_t>(parsed));
            injectRecorded = true;
        }
        if (!inject_csv.empty()) {
            std::string err;
            if (fps.configure(inject_csv, &err) < 0) {
                std::fprintf(stderr, "--inject: %s\n", err.c_str());
                std::exit(2);
            }
            injectRecorded = true;
        }
    }

    /** Register a rendered table for the JSON export. */
    void addTable(const std::string &title,
                  const aregion::TextTable &table)
    {
        tables.emplace_back(title, table);
    }

    /** Free-form scalar result carried into the JSON export. */
    void addMetric(const std::string &key, double value)
    {
        telemetry::Registry::global().set("bench." + name + "." + key,
                                          value);
    }

    /** Highest hardware-context count this run exercised; 1 (the
     *  default) means single-context, i.e. every historical bench.
     *  Recorded in the JSON `env` block so snapshots from contended
     *  and uncontended runs are never conflated. */
    void setContentionLevel(int level) { contentionLevel = level; }

    /** Write the JSON file when --json was given. Returns the
     *  process exit code. */
    int finish() const
    {
        if (jsonPath.empty())
            return 0;
        std::ofstream out(jsonPath);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         jsonPath.c_str());
            return 1;
        }
        out << "{\n  \"bench\": " << telemetry::jsonQuote(name);
        // Environment block: every export pins down the parallelism
        // and contention it ran under, so two snapshots are only
        // comparable when these match.
        out << ",\n  \"env\": {\"jobs\": "
            << parallel::configuredJobs()
            << ", \"hardware_concurrency\": "
            << std::thread::hardware_concurrency()
            << ", \"contention_level\": " << contentionLevel << "}";
        if (injectRecorded) {
            auto &fps = failpoint::Registry::global();
            out << ",\n  \"inject\": "
                << telemetry::jsonQuote(fps.describe())
                << ",\n  \"inject_seed\": " << fps.seed();
        }
        out << ",\n  \"tables\": {";
        for (size_t i = 0; i < tables.size(); ++i) {
            out << (i ? ",\n" : "\n") << "    "
                << telemetry::jsonQuote(tables[i].first) << ": "
                << tables[i].second.toJson(2);
        }
        out << (tables.empty() ? "" : "\n  ") << "},\n"
            << "  \"telemetry\": "
            << telemetry::Registry::global().toJson(2) << "\n}\n";
        return out.good() ? 0 : 1;
    }

  private:
    std::string name;
    std::string jsonPath;
    int contentionLevel = 1;
    bool injectRecorded = false;    ///< --inject/--seed was given
    std::vector<std::pair<std::string, aregion::TextTable>> tables;
};

/** The four Figure 7/8 compiler configurations plus the grey bar. */
inline std::vector<core::CompilerConfig>
paperConfigs(bool include_grey = false)
{
    std::vector<core::CompilerConfig> configs{
        core::CompilerConfig::baseline(),
        core::CompilerConfig::atomic(),
        core::CompilerConfig::baselineAggressiveInline(),
        core::CompilerConfig::atomicAggressiveInline(),
    };
    if (include_grey) {
        core::CompilerConfig grey = core::CompilerConfig::atomic();
        grey.name = "atomic+forced-mono";
        grey.forceMonomorphic = true;
        configs.push_back(grey);
    }
    return configs;
}

/** Per-workload results across configurations. */
struct WorkloadRuns
{
    std::string workload;
    std::map<std::string, rt::RunMetrics> byConfig;
};

/** Profile/measure program pair built once per workload so a grid
 *  of experiment cells can share it read-only. */
struct BuiltWorkload
{
    const wl::Workload *workload;
    vm::Program profile;
    vm::Program measure;
};

/** Build the program pairs for a suite, serially (cheap next to the
 *  experiments themselves, and keeps the build path deterministic). */
inline std::vector<BuiltWorkload>
buildPrograms(const std::vector<const wl::Workload *> &suite)
{
    std::vector<BuiltWorkload> built;
    built.reserve(suite.size());
    for (const wl::Workload *w : suite)
        built.push_back({w, w->build(true), w->build(false)});
    return built;
}

/** The full seven-benchmark suite as pointers for buildPrograms. */
inline std::vector<const wl::Workload *>
suitePointers()
{
    std::vector<const wl::Workload *> out;
    for (const wl::Workload &w : wl::dacapoSuite())
        out.push_back(&w);
    return out;
}

/** Named subset of the suite, in the given order. */
inline std::vector<const wl::Workload *>
suitePointers(const std::vector<std::string> &names)
{
    std::vector<const wl::Workload *> out;
    for (const std::string &name : names)
        out.push_back(&wl::workloadByName(name));
    return out;
}

/** One cell of an experiment grid: an index into the prebuilt
 *  program list plus the full configuration to run it under. */
struct GridCell
{
    size_t workload;
    rt::ExperimentConfig config;
};

/**
 * Run every cell of an experiment grid through the parallel driver
 * (support/parallel.hh). Each cell writes into its own preallocated
 * slot, so the returned vector is in cell order — tables assembled
 * from it are byte-identical no matter how many worker threads ran
 * the grid (AREGION_JOBS only changes wall-clock).
 */
inline std::vector<rt::RunMetrics>
runCellGrid(const std::vector<BuiltWorkload> &built,
            const std::vector<GridCell> &cells)
{
    std::vector<rt::RunMetrics> slots(cells.size());
    parallel::runGrid(cells.size(), [&](size_t i) {
        const GridCell &cell = cells[i];
        const BuiltWorkload &b = built[cell.workload];
        slots[i] = rt::runExperiment(b.profile, b.measure,
                                     cell.config,
                                     b.workload->samples);
    });
    return slots;
}

/**
 * Run every workload of a suite under its configurations: fans
 * workload × configuration cells across the driver, then assembles
 * per-workload results in suite order. `configsFor` lets individual
 * workloads add configurations (Figure 7's grey bar).
 */
inline std::vector<WorkloadRuns>
runSuiteGrid(const std::vector<BuiltWorkload> &built,
             const std::function<std::vector<core::CompilerConfig>(
                 const wl::Workload &)> &configsFor,
             const hw::TimingConfig &timing = hw::TimingConfig::baseline(),
             const hw::HwConfig &hwc = {})
{
    std::vector<GridCell> cells;
    std::vector<std::vector<std::string>> names(built.size());
    for (size_t wi = 0; wi < built.size(); ++wi) {
        for (const core::CompilerConfig &cc :
             configsFor(*built[wi].workload)) {
            rt::ExperimentConfig config;
            config.compiler = cc;
            config.timing = timing;
            config.hw = hwc;
            names[wi].push_back(cc.name);
            cells.push_back({wi, std::move(config)});
        }
    }
    std::vector<rt::RunMetrics> slots = runCellGrid(built, cells);
    std::vector<WorkloadRuns> out(built.size());
    size_t i = 0;
    for (size_t wi = 0; wi < built.size(); ++wi) {
        out[wi].workload = built[wi].workload->name;
        for (const std::string &name : names[wi])
            out[wi].byConfig.emplace(name, std::move(slots[i++]));
    }
    return out;
}

/** runSuiteGrid with the same configurations for every workload. */
inline std::vector<WorkloadRuns>
runSuiteGrid(const std::vector<BuiltWorkload> &built,
             const std::vector<core::CompilerConfig> &configs,
             const hw::TimingConfig &timing = hw::TimingConfig::baseline(),
             const hw::HwConfig &hwc = {})
{
    return runSuiteGrid(
        built, [&](const wl::Workload &) { return configs; }, timing,
        hwc);
}

/** Percentage speedup of `other` over `base` (weighted cycles). */
inline double
speedupPct(const rt::RunMetrics &base, const rt::RunMetrics &other)
{
    return (base.weightedCycles / other.weightedCycles - 1.0) * 100.0;
}

/** Percentage uop reduction of `other` relative to `base`. */
inline double
uopReductionPct(const rt::RunMetrics &base, const rt::RunMetrics &other)
{
    return (1.0 - other.weightedUops / base.weightedUops) * 100.0;
}

/** Paper Figure 7 speedups (percent, eyeballed from the figure). */
inline const std::map<std::string, std::map<std::string, double>> &
paperFigure7()
{
    static const std::map<std::string, std::map<std::string, double>>
        data{
            {"antlr", {{"atomic", 17}, {"no-atomic+aggr-inline", 5},
                       {"atomic+aggr-inline", 22}}},
            {"bloat", {{"atomic", 13}, {"no-atomic+aggr-inline", 10},
                       {"atomic+aggr-inline", 32}}},
            {"fop", {{"atomic", 2}, {"no-atomic+aggr-inline", 2},
                     {"atomic+aggr-inline", 5}}},
            {"hsqldb", {{"atomic", 25}, {"no-atomic+aggr-inline", 16},
                        {"atomic+aggr-inline", 56}}},
            {"jython", {{"atomic", -9}, {"no-atomic+aggr-inline", 14},
                        {"atomic+aggr-inline", 35}}},
            {"pmd", {{"atomic", -3}, {"no-atomic+aggr-inline", 1},
                     {"atomic+aggr-inline", 2}}},
            {"xalan", {{"atomic", 26}, {"no-atomic+aggr-inline", 5},
                       {"atomic+aggr-inline", 25}}},
        };
    return data;
}

/** Paper Table 3 (atomic+aggressive-inline configuration). */
struct PaperTable3Row
{
    double coveragePct;
    int unique;
    int size;
    double abortPct;
    double abortsPer1k;
};

inline const std::map<std::string, PaperTable3Row> &
paperTable3()
{
    static const std::map<std::string, PaperTable3Row> data{
        {"antlr", {9, 96, 47, 0.02, 0.0004}},
        {"bloat", {69, 93, 128, 4.3, 0.12}},
        {"fop", {20, 73, 32, 0.01, 0.0007}},
        {"hsqldb", {76, 75, 88, 2.74, 0.24}},
        {"jython", {87, 14, 227, 0.69, 0.27}},
        {"pmd", {32, 32, 42, 2.2, 0.18}},
        {"xalan", {78, 37, 78, 0.28, 0.03}},
    };
    return data;
}

} // namespace aregion::bench

#endif // AREGION_BENCH_COMMON_HH
