/**
 * @file
 * Shared harness for the bench binaries: the JSON export every binary
 * writes, the experiment grid the paper's figures (figures.hh) read
 * from, and the configurations and derived metrics their tables use.
 */

#ifndef AREGION_BENCH_COMMON_HH
#define AREGION_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
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
 * (docs/TELEMETRY.md).
 *
 * Fault injection is armed through AREGION_FAILPOINTS and
 * AREGION_FAILPOINT_SEED (docs/RESILIENCE.md). When failpoints are
 * still armed at finish(), the export records the canonical armed
 * set and the seed, so an injected run is reproducible from its
 * report alone.
 *
 * Usage in a binary:
 *
 *   int main(int argc, char **argv) {
 *       bench::BenchReport report("reproduce", argc, argv);
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
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--json" && i + 1 < argc)
                jsonPath = argv[++i];
            else
                argv[out++] = argv[i];
        }
        argc = out;
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
        auto &fps = failpoint::Registry::global();
        if (fps.anyArmed()) {
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
    std::vector<std::pair<std::string, aregion::TextTable>> tables;
};

/** For a binary whose flags are all consumed: any argument left in
 *  argv (a misspelt flag, `--json` without a path) prints `usage`
 *  and exits 2 before any work starts. */
inline void
rejectStrayArgs(int argc, char **argv, const char *usage)
{
    if (argc <= 1)
        return;
    std::fprintf(stderr, "unexpected argument '%s'\nusage: %s\n",
                 argv[1], usage);
    std::exit(2);
}

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

/** Compiler `cc` on machine `timing`, everything else default. */
inline rt::ExperimentConfig
experiment(const core::CompilerConfig &cc,
           const hw::TimingConfig &timing = hw::TimingConfig::baseline())
{
    rt::ExperimentConfig config;
    config.compiler = cc;
    config.timing = timing;
    return config;
}

/**
 * The experiment grid the figures read from. Figures queue
 * (program, ExperimentConfig) requests; run() executes each distinct
 * pair once on parallel::runGrid, and `grid[i]` is request i's
 * result. Two requests share a cell only when they name the same
 * program and their configs compare equal field by field, so no
 * figure can read another's numbers. Each cell writes its own slot:
 * results never depend on AREGION_JOBS.
 *
 * A program is a workload: its profiling and measurement builds
 * (built at run(), serially) and its sample windows.
 */
class Grid
{
  public:
    /** Queue one experiment; returns its request index. */
    size_t request(const wl::Workload &program, rt::ExperimentConfig config)
    {
        size_t cell = 0;
        while (cell < cells.size() && !(cells[cell].program == &program &&
                                        cells[cell].config == config))
            ++cell;
        if (cell == cells.size())
            cells.push_back({&program, std::move(config), {}});
        cellOf.push_back(cell);
        return cellOf.size() - 1;
    }

    /** Run every cell (again, when called again). */
    void run()
    {
        std::map<const wl::Workload *, std::pair<vm::Program, vm::Program>>
            built;
        for (const Cell &c : cells) {
            if (!built.count(c.program))
                built.try_emplace(c.program, c.program->build(true),
                                  c.program->build(false));
        }
        parallel::runGrid(cells.size(), [&](size_t i) {
            Cell &c = cells[i];
            const auto &[profile, measure] = built.at(c.program);
            c.result = rt::runExperiment(profile, measure, c.config,
                                         c.program->samples);
        });
    }

    const rt::RunMetrics &operator[](size_t request) const
    {
        return cells[cellOf[request]].result;
    }

    size_t requested() const { return cellOf.size(); }
    size_t distinct() const { return cells.size(); }

  private:
    struct Cell
    {
        const wl::Workload *program;
        rt::ExperimentConfig config;
        rt::RunMetrics result;
    };
    std::vector<Cell> cells;
    std::vector<size_t> cellOf;     ///< request index -> cell
};

/** One figure's requests on a Grid, read back in request order once
 *  the grid has run. */
class Runs
{
  public:
    explicit Runs(Grid &grid) : grid(&grid) {}

    void add(const wl::Workload &program, rt::ExperimentConfig config)
    {
        ids.push_back(grid->request(program, std::move(config)));
    }

    /** The result of the next request. */
    const rt::RunMetrics &next() { return (*grid)[ids.at(read++)]; }

  private:
    Grid *grid;
    std::vector<size_t> ids;
    size_t read = 0;
};

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

} // namespace aregion::bench

#endif // AREGION_BENCH_COMMON_HH
